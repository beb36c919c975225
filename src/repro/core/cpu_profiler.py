"""Scalene's CPU profiler (paper §2).

A wall-clock interval timer delivers a signal every ``q`` seconds. Because
the interpreter defers signals during native calls, the handler observes
the *delay* between expected and actual delivery on the process CPU clock
and infers:

* ``python_time += q`` — the interpreter was responsive for the quantum;
* ``native_time += T - q`` — any additional CPU elapsed (T) must have been
  spent outside the interpreter;
* ``system_time += wall_elapsed - T`` — wall time with no CPU behind it is
  time blocked in the kernel (IO, GPU waits).

For subthreads — which never receive signals — attribution uses the
§2.2 combination: the status flags maintained by the monkey-patched
blocking calls, ``sys._current_frames()``, and the CALL-opcode map from
bytecode disassembly.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.attribution import thread_location
from repro.core.config import ScaleneConfig
from repro.core.stats import ScaleneStats
from repro.core.thread_attrib import ThreadStatusTable, is_in_native_call
from repro.errors import ProfilerError
from repro.runtime.signals import SIGALRM, Timers


class CpuProfiler:
    """Signal-delay CPU profiler with subthread attribution."""

    def __init__(
        self,
        process,
        config: ScaleneConfig,
        stats: ScaleneStats,
        status: ThreadStatusTable,
        on_sample: Optional[Callable[[], None]] = None,
    ) -> None:
        self._process = process
        self._config = config
        self._stats = stats
        self._status = status
        #: Extra per-sample callbacks (the GPU profiler piggybacks here, §4).
        self._on_sample = on_sample
        self._last_wall = 0.0
        self._last_cpu = 0.0
        self._previous_handler = None
        self._running = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._running:
            raise ProfilerError("CPU profiler already started")
        process = self._process
        op_cost = process.vm.config.op_cost
        self._handler_cost = self._config.signal_handler_cost_ops * op_cost
        self._stack_walk_cost = self._config.stack_walk_cost_ops * op_cost
        self._last_wall = process.clock.wall
        self._last_cpu = process.clock.cpu
        self._previous_handler = process.signals.get_handler(SIGALRM)
        process.signals.set_handler(SIGALRM, self._handler)
        process.signals.setitimer(Timers.ITIMER_REAL, self._config.cpu_sampling_interval)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            raise ProfilerError("CPU profiler not running")
        process = self._process
        process.signals.setitimer(Timers.ITIMER_REAL, 0)
        process.signals.set_handler(SIGALRM, self._previous_handler)
        self._running = False

    def pause(self) -> None:
        """Disarm the sampling timer (region profiling)."""
        self._process.signals.setitimer(Timers.ITIMER_REAL, 0)

    def resume(self) -> None:
        """Re-arm the timer, restarting the measurement window now."""
        process = self._process
        self._last_wall = process.clock.wall
        self._last_cpu = process.clock.cpu
        process.signals.setitimer(
            Timers.ITIMER_REAL, self._config.cpu_sampling_interval
        )

    # -- the signal handler ----------------------------------------------------------

    def _handler(self, signum: int) -> None:
        process = self._process
        config = self._config
        process.charge_overhead(process.main_thread, self._handler_cost)

        now_wall = process.clock.wall
        now_cpu = process.clock.cpu
        wall_elapsed = now_wall - self._last_wall
        cpu_elapsed = now_cpu - self._last_cpu
        self._last_wall = now_wall
        self._last_cpu = now_cpu
        if wall_elapsed <= 0:
            return

        q = config.cpu_sampling_interval
        if config.use_delay_inference:
            python_t = min(q, cpu_elapsed)
            native_t = max(cpu_elapsed - q, 0.0)
            system_t = max(wall_elapsed - cpu_elapsed, 0.0)
        else:
            # Ablated: the naive attribution every pre-Scalene sampler
            # uses — all observed time is "Python" time.
            python_t = cpu_elapsed
            native_t = 0.0
            system_t = max(wall_elapsed - cpu_elapsed, 0.0)

        self._stats.cpu_sample_count += 1
        executing = self._executing_threads()
        profiled = self._process.profiled_filenames

        main_location = thread_location(process.main_thread, profiled)
        if not executing:
            # Everything is blocked: all elapsed wall time is system time,
            # attributed to the main thread's blocking line.
            self._stats.record_cpu(main_location, 0.0, 0.0, system_t)
        else:
            share_cpu = (python_t + native_t) / len(executing)
            share_sys = system_t / len(executing)
            cpu_total = python_t + native_t
            for thread in executing:
                process.charge_overhead(process.main_thread, self._stack_walk_cost)
                location = thread_location(thread, profiled)
                if thread.is_main:
                    # Signal-delay inference splits the main thread's share.
                    if cpu_total > 0:
                        p = share_cpu * (python_t / cpu_total)
                        n = share_cpu - p
                    else:
                        p = n = 0.0
                    self._stats.record_cpu(location, p, n, share_sys)
                else:
                    # §2.2: CALL-opcode heuristic decides Python vs native.
                    if is_in_native_call(thread, process.call_opcode_map):
                        self._stats.record_cpu(location, 0.0, share_cpu, share_sys)
                    else:
                        self._stats.record_cpu(location, share_cpu, 0.0, share_sys)

        if self._on_sample is not None:
            self._on_sample()

    def _executing_threads(self) -> List:
        """Live threads Scalene considers to be executing right now."""
        process = self._process
        result = []
        for thread in process.threading.enumerate():
            if thread.frame is None:
                continue
            if not self._status.is_executing(thread):
                continue
            # Threads blocked in *unpatched* waits still look "executing"
            # to Scalene's flags, matching the real system's behaviour —
            # except the main thread, which is demonstrably in the handler.
            result.append(thread)
        return result
