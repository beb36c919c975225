"""The Scalene orchestrator: wires all the profiling components together.

Usage::

    process = SimProcess(source, filename="app.py")
    scalene = Scalene(process, mode="full")
    scalene.start()
    process.run()
    profile = scalene.stop()

or, equivalently, ``profile = Scalene.run(process, mode="full")``.

Modes mirror the paper's evaluation rows: ``cpu`` (CPU only),
``cpu+gpu`` (adds GPU sampling), and ``full`` (adds memory, leak and
copy-volume profiling).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import MODE_FULL, ScaleneConfig
from repro.core.copy_volume import CopyVolumeProfiler
from repro.core.cpu_profiler import CpuProfiler
from repro.core.gpu_profiler import GpuProfiler
from repro.core.leak_detector import LeakDetector
from repro.core.memory_profiler import MemoryProfiler
from repro.core.profile_data import (
    LockEdge,
    ProcessReport,
    ProfileData,
    TaskReport,
    build_profile,
    merge_profiles,
)
from repro.core.stats import ScaleneStats
from repro.core.thread_attrib import ThreadPatches, ThreadStatusTable
from repro.errors import ProfilerError


class Scalene:
    """The profiler: attach to a :class:`~repro.runtime.process.SimProcess`."""

    def __init__(
        self,
        process,
        config: Optional[ScaleneConfig] = None,
        *,
        mode: Optional[str] = None,
        stats: Optional[ScaleneStats] = None,
        stitch_children: bool = False,
    ) -> None:
        if config is not None and mode is not None and config.mode != mode:
            raise ProfilerError("pass either a config or a mode, not conflicting both")
        if config is None:
            config = ScaleneConfig(mode=mode or MODE_FULL)
        self.process = process
        self.config = config
        # Child-profile stitching (the alternative to shared stats): each
        # forked child gets its OWN stats and profile, and ``stop()``
        # merges parent + children via the exact ``merge_profiles``
        # semantics — counters of the merged profile equal the sum of the
        # per-process profiles.
        self.stitch_children = stitch_children
        self._child_sessions: List["Scalene"] = []
        # ``stats`` may be shared: child-process profilers merge their
        # attribution into the parent's statistics (multiprocessing).
        self._owns_stats = stats is None
        self.stats = stats if stats is not None else ScaleneStats()
        self.status = ThreadStatusTable()
        self.patches = ThreadPatches(process, self.status)
        self.leak_detector = LeakDetector(config) if config.profiles_memory else None
        self.memory_profiler = (
            MemoryProfiler(process, config, self.stats, self.leak_detector)
            if config.profiles_memory
            else None
        )
        self.copy_profiler = (
            CopyVolumeProfiler(process, config, self.stats)
            if config.profiles_memory
            else None
        )
        self.gpu_profiler = (
            GpuProfiler(process, config, self.stats) if config.profiles_gpu else None
        )
        on_sample = self.gpu_profiler.sample if self.gpu_profiler else None
        self.cpu_profiler = CpuProfiler(
            process, config, self.stats, self.status, on_sample=on_sample
        )
        self._started = False
        self._detached = False
        self._stopped = False
        self.paused = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Install all hooks; call before ``process.run()``."""
        if self._started:
            raise ProfilerError("Scalene already started")
        self._started = True
        process = self.process
        if self._owns_stats:
            self.stats.start_wall = process.clock.wall
            self.stats.start_cpu = process.clock.cpu
        self.patches.install()
        if self.memory_profiler is not None:
            self.memory_profiler.install()
        if self.copy_profiler is not None:
            self.copy_profiler.install()
        if self.gpu_profiler is not None:
            self.gpu_profiler.start()
        self.cpu_profiler.start()
        # Detach before interpreter teardown, like the real Scalene's
        # atexit handling — exit-time frees of module globals are not part
        # of the profiled program's behaviour.
        process.atexit_hooks.append(self._detach)
        # Multiprocessing support (Figure 1): profile forked children too,
        # merging their per-line attribution into this session's stats.
        process.child_observers.append(self._profile_child)
        # Region profiling: the profiled program may toggle sampling with
        # the profile_start()/profile_stop() builtins.
        process.profiler_control = self
        if self.config.start_paused:
            self.pause()

    # -- region profiling (the scalene_profiler.start()/stop() API) --------

    def pause(self) -> None:
        """Suspend sampling; hooks stay installed (cheap, consistent)."""
        if self.paused or not self._started or self._detached:
            return
        self.paused = True
        self.cpu_profiler.pause()
        if self.memory_profiler is not None:
            self.memory_profiler.pause()
        if self.copy_profiler is not None:
            self.copy_profiler.paused = True

    def resume(self) -> None:
        """Resume sampling after :meth:`pause`."""
        if not self.paused or self._detached:
            return
        self.paused = False
        self.cpu_profiler.resume()
        if self.memory_profiler is not None:
            self.memory_profiler.resume()
        if self.copy_profiler is not None:
            self.copy_profiler.paused = False

    def _profile_child(self, child) -> None:
        if self.stitch_children:
            # Stitching mode: the child profiles into its own stats; its
            # finished profile is merged into ours at stop().
            child_scalene = Scalene(
                child, config=self.config, stitch_children=True
            )
            child_scalene.start()
            self._child_sessions.append(child_scalene)
            return
        child_scalene = Scalene(child, config=self.config, stats=self.stats)
        child_scalene.start()
        # The child's atexit hook detaches its profiler; the shared stats
        # already carry its attribution, so no explicit stop() is needed.

    def _detach(self) -> None:
        """Remove all hooks (idempotent)."""
        if self._detached:
            return
        self._detached = True
        process = self.process
        self.cpu_profiler.stop()
        if self.gpu_profiler is not None:
            self.gpu_profiler.stop()
        if self.copy_profiler is not None:
            self.copy_profiler.uninstall()
        if self.memory_profiler is not None:
            self.memory_profiler.uninstall()
        self.patches.uninstall()
        if getattr(process, "profiler_control", None) is self:
            process.profiler_control = None
        if self._owns_stats:
            self.stats.stop_wall = process.clock.wall
            self.stats.stop_cpu = process.clock.cpu

    def stop(self) -> ProfileData:
        """Remove any remaining hooks and build the final profile."""
        if not self._started:
            raise ProfilerError("Scalene was never started")
        if self._stopped:
            raise ProfilerError("Scalene already stopped")
        self._stopped = True
        self._detach()

        leaks = []
        if self.leak_detector is not None:
            self.leak_detector.finalize()
            leaks = self.leak_detector.report(
                self.stats.memory_timeline, self.stats.elapsed
            )
        profile = build_profile(
            self.stats,
            self.config,
            source_lines=self._source_lines(),
            leaks=leaks,
            sample_log_bytes=self.sample_log_bytes,
        )
        self._attach_crossings(profile)
        self._attach_locks(profile)
        self._attach_tasks(profile)
        self._attach_processes(profile)
        # Degraded-mode accounting: if a fault injector was threaded
        # through the runtime, the profile says so (and how), and its
        # bounded invariants are clamped rather than trusted.
        faults = getattr(self.process, "faults", None)
        if faults is not None:
            from repro.faults import apply_fault_counters

            apply_fault_counters(profile, faults)
        if self._child_sessions:
            # Stitch: the merged profile's counters exactly equal the sum
            # of the per-process profiles (merge_profiles semantics).
            profile = merge_profiles(
                [profile] + [child.stop() for child in self._child_sessions]
            )
        return profile

    # -- helpers -------------------------------------------------------

    def _attach_crossings(self, profile: ProfileData) -> None:
        """Fold the runtime's exact crossing counters into the profile.

        Unlike the sampled columns, crossings come straight from the
        CrossingRecorder (exact counts); only lines that survived the
        significance filter carry per-line counters, but the totals cover
        the whole run.
        """
        recorder = getattr(self.process, "crossings", None)
        if recorder is None:
            return
        profile.total_crossings = recorder.total_crossings
        profile.total_crossing_overhead_s = recorder.total_overhead_s
        profile.total_bytes_to_native = recorder.total_bytes_to_native
        profile.total_bytes_to_python = recorder.total_bytes_to_python
        for line in profile.lines:
            counters = recorder.lines.get((line.filename, line.lineno))
            if counters is None:
                continue
            line.crossings = counters.crossings
            line.crossing_overhead_s = counters.overhead_s
            line.crossing_native_s = counters.native_s
            line.bytes_to_native = counters.bytes_to_native
            line.bytes_to_python = counters.bytes_to_python

    def _attach_locks(self, profile: ProfileData) -> None:
        """Fold the runtime's exact lock-contention counters in.

        Blocked time is attributed to the *acquiring* line (where the
        thread stalled); the edge list names who blocked whom on which
        lock. Like crossings: totals are whole-run, per-line counters
        only land on lines that survived the significance filter.
        """
        recorder = getattr(self.process, "lock_contention", None)
        if recorder is None:
            return
        profile.total_lock_blocked_s = recorder.total_blocked_s
        profile.total_lock_contentions = recorder.total_contentions
        profile.total_lock_acquisitions = recorder.total_acquisitions
        for line in profile.lines:
            stats = recorder.lines.get((line.filename, line.lineno))
            if stats is None:
                continue
            line.lock_blocked_s = stats.blocked_s
            line.lock_contentions = stats.contentions
            line.lock_acquisitions = stats.acquisitions
        profile.lock_edges = [
            LockEdge(
                waiter=waiter,
                holder=holder,
                lock=lock,
                blocked_s=entry.blocked_s,
                count=entry.count,
            )
            for (waiter, holder, lock), entry in sorted(
                recorder.edges.items(), key=lambda kv: -kv[1].blocked_s
            )
        ]

    def _attach_tasks(self, profile: ProfileData) -> None:
        """Fold per-task event-loop accounting in (exact counters)."""
        runtime = getattr(self.process, "async_runtime", None)
        if runtime is None:
            return
        records = runtime.task_records()
        if not records:
            return
        profile.tasks = [
            TaskReport(
                name=record.name,
                cpu_s=record.cpu_s,
                wait_s=record.wait_s,
                switches=record.switches,
                awaiting=(
                    f"{record.await_location[0]}:{record.await_location[1]}"
                    if record.await_location is not None
                    else ""
                ),
            )
            for record in records
        ]

    def _attach_processes(self, profile: ProfileData) -> None:
        """Record process lineage for fork/spawn runs.

        In the default shared-stats mode this session's profile covers
        the whole subtree, so the full lineage is listed here. In
        stitching mode every session reports only its own process — the
        merge assembles the tree with each pid appearing exactly once.
        """
        process = self.process
        if not process.children and process.parent_pid is None:
            return
        tree = [process] if self.stitch_children else process.process_tree()
        profile.processes = [
            ProcessReport(
                pid=proc.pid,
                parent_pid=proc.parent_pid,
                elapsed_s=proc.clock.wall,
                cpu_s=proc.clock.cpu,
                peak_mb=proc.mem.peak_footprint / (1024 * 1024),
            )
            for proc in tree
        ]

    @property
    def sample_log_bytes(self) -> int:
        """Total bytes written to the sampling files (§6.5 log growth)."""
        total = 0
        if self.memory_profiler is not None:
            total += self.memory_profiler.samplefile.size_bytes
        if self.copy_profiler is not None:
            total += self.copy_profiler.samplefile.size_bytes
        return total

    def _source_lines(self) -> Dict[str, List[str]]:
        source = self.process.source or ""
        return {self.process.filename: source.splitlines()}

    @classmethod
    def run(
        cls,
        process,
        mode: str = MODE_FULL,
        config: Optional[ScaleneConfig] = None,
        *,
        stitch_children: bool = False,
    ) -> ProfileData:
        """Convenience: attach, run the process, and return the profile."""
        scalene = cls(
            process,
            config=config,
            mode=None if config else mode,
            stitch_children=stitch_children,
        )
        scalene.start()
        process.run()
        return scalene.stop()
