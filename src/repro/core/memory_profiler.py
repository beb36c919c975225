"""Scalene's memory profiler (paper §3.1–§3.3).

Installs two interposition points:

* a listener on the system-allocator shim (the LD_PRELOAD layer), which
  observes *native* allocations and frees; and
* a wrapper around the Python object allocator via the PyMem hooks
  (``PyMem_SetAllocator``), which observes *Python* allocations and frees
  — delegating to the previous allocator while holding the shim's
  in-allocator guard so the backing system traffic is not double counted.

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
        # Footprint tracking (profiler's view, built purely from events).
        self._footprint = 0
        self._footprint_at_last_sample = 0
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
        mem = self._process.mem
        mem.shim.add_listener(self)
        self._saved_allocator = mem.hooks.get_allocator()
        mem.hooks.set_allocator(
            ObservingAllocator(self.observe, self._saved_allocator, mem.shim)
        )
        # Per-event hook costs, in seconds (same float expressions as the
        # overhead model's ops x op_cost, computed once).
        config = self._config
        op_cost = self._process.vm.config.op_cost
        self._alloc_cost = config.alloc_hook_cost_ops * op_cost
        self._free_cost = (config.alloc_hook_cost_ops + config.free_check_cost_ops) * op_cost
        self._sample_cost = config.sample_write_cost_ops * op_cost
        self._footprint = mem.logical_footprint()
        self._footprint_at_last_sample = self._footprint
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
        self.event_count += 1
        if signed_bytes >= 0:
            self._process.charge_overhead(thread, self._alloc_cost)
            self._window_alloc_bytes += signed_bytes
            if domain == DOMAIN_PYTHON:
                self._window_python_alloc_bytes += signed_bytes
        else:
            self._process.charge_overhead(thread, self._free_cost)
            if self._leaks is not None:
                # The cheap, highly predictable pointer comparison (§3.4).
                self._leaks.on_free(address)
        self._footprint += signed_bytes
        if self.paused:
            return

        delta = self._footprint - self._footprint_at_last_sample
        if abs(delta) >= self._config.memory_threshold:
            self._take_sample(delta, address, abs(signed_bytes), thread)

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

        self._footprint_at_last_sample = self._footprint
        self._window_alloc_bytes = 0
        self._window_python_alloc_bytes = 0

    # -- pause/resume (region profiling) ---------------------------------------

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        """Resume sampling; footprint drift during the pause is skipped
        (it belongs to the unprofiled region)."""
        self._footprint_at_last_sample = self._footprint
        self._window_alloc_bytes = 0
        self._window_python_alloc_bytes = 0
        self.paused = False

    # -- introspection ----------------------------------------------------------

    @property
    def footprint(self) -> int:
        return self._footprint
