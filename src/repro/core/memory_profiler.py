"""Scalene's memory profiler (paper §3.1–§3.3).

Installs two interposition points:

* a listener on the system-allocator shim (the LD_PRELOAD layer), which
  observes *native* allocations and frees; and
* a wrapper around the Python object allocator via the PyMem hooks
  (``PyMem_SetAllocator``), which reports *Python* allocations and frees
  to :meth:`MemoryProfiler.observe_alloc` and
  :meth:`MemoryProfiler.observe_free` — delegating to the previous
  allocator under the shim's in-allocator flag so the backing system
  traffic is not double counted.

Both streams feed one **threshold-based sampler**: a running footprint
counter triggers a sample whenever it moves more than ``T`` bytes (the
prime just above 10 MB) away from the footprint at the previous sample —
capturing every significant change while ignoring the torrent of
footprint-neutral churn that rate-based samplers pay for (§3.2).

Each sample appends one line to a sampling file (byte-accounted, for the
log-growth comparison of §6.5) and updates the per-line statistics; the
leak detector piggybacks on growth samples (§3.4).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.attribution import thread_location
from repro.core.config import ScaleneConfig
from repro.core.leak_detector import LeakDetector
from repro.core.stats import ScaleneStats
from repro.errors import ProfilerError
from repro.memory.hooks import ObservingAllocator
from repro.memory.samplefile import SampleFile
from repro.memory.shim import DOMAIN_PYTHON, ShimListener


class MemoryProfiler(ShimListener):
    """Threshold-based allocation sampler over both allocation domains."""

    def __init__(
        self,
        process,
        config: ScaleneConfig,
        stats: ScaleneStats,
        leak_detector: Optional[LeakDetector] = None,
    ) -> None:
        self._process = process
        self._config = config
        self._stats = stats
        self._leaks = leak_detector
        self.samplefile = SampleFile("scalene-mem")
        # Footprint tracking (profiler's view, built purely from events),
        # and the bounds whose crossing takes a sample (see _rebase).
        self._footprint = 0
        self._footprint_at_last_sample = 0
        self._lower = self._upper = 0
        # Window counters since the last sample (python fraction, §3.3).
        self._window_alloc_bytes = 0
        self._window_python_alloc_bytes = 0
        #: Total allocation events observed (diagnostics / Table 2).
        self.event_count = 0
        self.sample_count = 0
        self._installed = False
        self._saved_allocator = None
        #: While paused, footprint tracking continues (the interposition
        #: cannot be detached without losing consistency) but no samples,
        #: statistics, or leak tracking are recorded.
        self.paused = False

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise ProfilerError("memory profiler already installed")
        process = self._process
        mem = process.mem
        # Per-event hook costs, in seconds (same float expressions as the
        # overhead model's ops x op_cost, computed once).
        config = self._config
        op_cost = process.vm.config.op_cost
        self._alloc_cost = config.alloc_hook_cost_ops * op_cost
        self._free_cost = (config.alloc_hook_cost_ops + config.free_check_cost_ops) * op_cost
        self._sample_cost = config.sample_write_cost_ops * op_cost
        # What SimProcess.charge_overhead touches, for the inline charge.
        self._clock = process.clock
        self._ground_truth = process.ground_truth
        mem.shim.add_listener(self)
        self._saved_allocator = mem.hooks.get_allocator()
        mem.hooks.set_allocator(
            ObservingAllocator(self.observe_alloc, self.observe_free, self._saved_allocator, mem.shim)
        )
        self._footprint = mem.logical_footprint()
        self._rebase()
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        mem = self._process.mem
        mem.shim.remove_listener(self)
        mem.hooks.set_allocator(self._saved_allocator)
        self._installed = False
        # Final timeline point so the last footprint is visible.
        self._stats.memory_timeline.append(
            (self._process.clock.wall, self._footprint / (1024 * 1024))
        )

    # -- shim listener (native domain) ---------------------------------------

    def on_malloc(self, event) -> None:
        self.observe(+event.nbytes, event.domain, event.address, event.thread)

    def on_free(self, event) -> None:
        self.observe(-event.nbytes, event.domain, event.address, event.thread)

    # -- the sampler ----------------------------------------------------------

    def observe(self, signed_bytes: int, domain: str, address: int, thread) -> None:
        """One allocation (+) or free (-) event, either domain."""
        if signed_bytes >= 0:
            self.observe_alloc(signed_bytes, address, thread, domain == DOMAIN_PYTHON)
        else:
            self.observe_free(-signed_bytes, address, thread)

    def observe_alloc(self, nbytes: int, address: int, thread, python: bool = True) -> None:
        """One allocation of ``nbytes`` (the PyMem wrapper's ``on_alloc``;
        :meth:`observe` passes ``python=False`` for a native one, which
        stays out of the window's Python share).

        The per-event path is this one frame and the clock advance: the
        hook charge is :meth:`SimProcess.charge_overhead` inlined, in its
        order, and the threshold test is one comparison with a bound set
        when the window opened.
        """
        self.event_count += 1
        cost = self._alloc_cost
        if cost > 0:
            self._clock.advance_cpu(cost)
            if thread is not None:
                thread.cpu_time += cost
            if self._ground_truth is not None:
                self._ground_truth.record_overhead(cost)
        self._window_alloc_bytes += nbytes
        if python:
            self._window_python_alloc_bytes += nbytes
        footprint = self._footprint = self._footprint + nbytes
        if footprint >= self._upper:
            self._take_sample(footprint - self._footprint_at_last_sample, address, nbytes, thread)

    def observe_free(self, nbytes: int, address: int, thread) -> None:
        """One free of ``nbytes``, either domain (the PyMem wrapper's
        ``on_free``); one frame, as :meth:`observe_alloc`."""
        self.event_count += 1
        cost = self._free_cost
        if cost > 0:
            self._clock.advance_cpu(cost)
            if thread is not None:
                thread.cpu_time += cost
            if self._ground_truth is not None:
                self._ground_truth.record_overhead(cost)
        leaks = self._leaks
        if leaks is not None:
            # The cheap, highly predictable pointer comparison (§3.4),
            # LeakDetector.on_free inlined.
            leaks.free_checks += 1
            tracked = leaks.tracked
            if tracked is not None and tracked.address == address:
                tracked.freed = True
        footprint = self._footprint = self._footprint - nbytes
        if footprint <= self._lower:
            self._take_sample(footprint - self._footprint_at_last_sample, address, nbytes, thread)

    def _rebase(self) -> None:
        """Open a sampling window at the current footprint. The next sample
        fires once the footprint is ``memory_threshold`` bytes or more from
        here (never while paused). Events test only the bound on their own
        side, which is ``|footprint - last| >= T`` exactly: with ``T > 0``
        (ScaleneConfig checks it) each window opens strictly inside both
        bounds, and the first crossing closes it.
        """
        footprint = self._footprint_at_last_sample = self._footprint
        if self.paused:
            self._lower, self._upper = -math.inf, math.inf
        else:
            threshold = self._config.memory_threshold
            self._lower, self._upper = footprint - threshold, footprint + threshold

    def _take_sample(self, delta: int, address: int, trigger_nbytes: int, thread) -> None:
        process = self._process
        process.charge_overhead(thread, self._sample_cost)
        self.sample_count += 1

        if self._window_alloc_bytes > 0:
            python_fraction = self._window_python_alloc_bytes / self._window_alloc_bytes
        else:
            python_fraction = 0.0
        location = thread_location(thread, process.profiled_filenames)
        wall = process.clock.wall

        # The sampling-file record: what the background thread would read.
        kind = "malloc" if delta > 0 else "free"
        where = f"{location[0]}:{location[1]}" if location else "?"
        self.samplefile.append(
            f"{kind},{wall:.6f},{delta},{python_fraction:.3f},{address:#x},{where}"
        )

        self._stats.record_memory_sample(
            location, delta, python_fraction, self._footprint, wall
        )
        if self._leaks is not None and delta > 0:
            self._leaks.on_growth_sample(
                footprint=self._footprint,
                address=address,
                nbytes=trigger_nbytes,
                location=location,
                wall=wall,
            )

        self._rebase()
        self._window_alloc_bytes = 0
        self._window_python_alloc_bytes = 0

    # -- pause/resume (region profiling) ---------------------------------------

    def pause(self) -> None:
        self.paused = True
        self._rebase()

    def resume(self) -> None:
        """Resume sampling; footprint drift during the pause is skipped
        (it belongs to the unprofiled region)."""
        self.paused = False
        self._rebase()
        self._window_alloc_bytes = 0
        self._window_python_alloc_bytes = 0

    # -- introspection ----------------------------------------------------------

    @property
    def footprint(self) -> int:
        return self._footprint
