"""GPU profiling (paper §4).

Piggybacks on the CPU sampler: at every CPU sample the profiler reads the
device's current utilization and memory through the NVML-style query and
attributes them to the currently executing line. When the device supports
per-PID accounting, Scalene enables it at startup (on real hardware this
requires one privileged invocation; the simulation just flips the mode).
"""

from __future__ import annotations

from repro.core.attribution import thread_location
from repro.core.config import ScaleneConfig
from repro.core.stats import ScaleneStats


class GpuProfiler:
    """Samples GPU utilization/memory alongside CPU samples."""

    def __init__(self, process, config: ScaleneConfig, stats: ScaleneStats) -> None:
        self._process = process
        self._config = config
        self._stats = stats
        self.samples = 0

    def start(self) -> None:
        self._query_cost = self._config.gpu_query_cost_ops * self._process.vm.config.op_cost
        device = self._process.gpu
        if self._config.enable_gpu_per_pid_accounting and not device.per_pid_accounting:
            # "SCALENE offers to enable it" (§4); the simulation accepts.
            device.enable_per_pid_accounting()

    def stop(self) -> None:
        # Bound device-side kernel history (the profiler read it already).
        self._process.gpu.prune(before=self._process.clock.wall - 5.0)

    def sample(self) -> None:
        """Take one GPU sample (called from the CPU signal handler)."""
        process = self._process
        process.charge_overhead(process.main_thread, self._query_cost)
        utilization, memory = process.nvml.snapshot(process.clock.wall, process.pid)
        location = thread_location(process.main_thread, process.profiled_filenames)
        self._stats.record_gpu(location, utilization, memory)
        self.samples += 1
