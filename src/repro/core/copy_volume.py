"""Copy-volume profiling (paper §3.5).

The shim's ``memcpy`` interposition feeds a classical *rate-based* sampler
(unlike the allocation path, which is threshold-based): every
``copy_sampling_rate`` bytes of copying produces one sample attributing
that many bytes to the current line. The metric surfaces hidden copying
across the Python/native divide and between CPU and GPU.
"""

from __future__ import annotations

from repro.core.attribution import thread_location
from repro.core.config import ScaleneConfig
from repro.core.stats import ScaleneStats
from repro.errors import ProfilerError
from repro.memory.samplefile import SampleFile
from repro.memory.shim import ShimListener


class CopyVolumeProfiler(ShimListener):
    """Rate-based memcpy sampler."""

    def __init__(self, process, config: ScaleneConfig, stats: ScaleneStats) -> None:
        self._process = process
        self._config = config
        self._stats = stats
        self.samplefile = SampleFile("scalene-memcpy")
        self._counter = 0
        self.event_count = 0
        self.sample_count = 0
        self._installed = False
        self.paused = False

    # -- lifecycle -------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise ProfilerError("copy-volume profiler already installed")
        self._process.mem.shim.add_listener(self)
        op_cost = self._process.vm.config.op_cost
        self._hook_cost = self._config.memcpy_hook_cost_ops * op_cost
        self._sample_cost = self._config.sample_write_cost_ops * op_cost
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        self._process.mem.shim.remove_listener(self)
        self._installed = False

    # -- shim listener -------------------------------------------------------

    def on_memcpy(self, event) -> None:
        self._process.charge_overhead(event.thread, self._hook_cost)
        self.event_count += 1
        if self.paused:
            return
        self._counter += event.nbytes
        rate = self._config.copy_sampling_rate
        while self._counter >= rate:
            self._counter -= rate
            self._take_sample(event, rate)

    def _take_sample(self, event, nbytes: int) -> None:
        process = self._process
        process.charge_overhead(event.thread, self._sample_cost)
        self.sample_count += 1
        location = thread_location(event.thread, process.profiled_filenames)
        where = f"{location[0]}:{location[1]}" if location else "?"
        self.samplefile.append(
            f"memcpy,{process.clock.wall:.6f},{nbytes},{event.direction},{where}"
        )
        self._stats.record_copy(location, nbytes)
