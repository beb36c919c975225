"""The simulation's notion of time.

The simulated process runs on *virtual time*, fully decoupled from host
time. Two time bases exist, mirroring POSIX process clocks:

* **wall time** (``CLOCK_MONOTONIC`` / ``time.perf_counter``): advances
  whenever anything happens — CPU work, blocking IO, idle waits.
* **process CPU time** (``time.process_time``): advances only while some
  simulated thread is executing on the (single, GIL-guarded) CPU.

Because the simulated interpreter holds a GIL, at most one thread consumes
CPU at any instant, so process CPU time is the sum of per-thread CPU times
(per-thread accounting is kept by the scheduler on each thread object).

The process's :class:`~repro.runtime.signals.SignalManager` registers as
the clock's ``signals``; an advance that crosses one of its cached
deadlines polls it, except the interpreter's per-op charge, whose
eval-breaker check polls instead (DESIGN.md §6). Observers (out-of-process
samplers) may subscribe to see every advance.
"""

from __future__ import annotations

from typing import Callable, List

AdvanceCallback = Callable[[float, float], None]
"""Callback invoked as ``cb(wall_dt, cpu_dt)`` after every clock advance."""


class _NoTimers:
    """``signals`` of a clock no signal manager claimed: never crossed."""

    cpu_deadline = wall_deadline = float("inf")


class VirtualClock:
    """Monotonic virtual wall clock plus process CPU clock.

    Invariants:

    * both clocks are monotonically non-decreasing;
    * CPU time never advances faster than wall time
      (``cpu_dt <= wall_dt`` on every step).

    With a fault injector attached (``clock.faults``), an advance may
    additionally carry a forward wall-clock *jump* — the NTP-step /
    suspend-resume failure mode. Jumps only ever widen the wall side, so
    both invariants hold under any fault schedule.
    """

    __slots__ = ("_wall", "_cpu", "_observers", "_faults", "_observed", "signals")

    def __init__(self) -> None:
        self._wall = 0.0
        self._cpu = 0.0
        self._observers: List[AdvanceCallback] = []
        self._faults = None
        # Whether an advance has observers to call or a jump to decide
        # (kept current by subscribe, unsubscribe and the faults setter).
        self._observed = False
        #: The timers an advance polls when it crosses their cached
        #: ``cpu_deadline``/``wall_deadline`` (a SignalManager sets itself).
        self.signals = _NoTimers()

    @property
    def faults(self):
        """Optional :class:`repro.faults.FaultInjector` (clock-jump faults)."""
        return self._faults

    @faults.setter
    def faults(self, injector) -> None:
        self._faults = injector
        self._observed = bool(self._observers) or injector is not None

    # -- reading -----------------------------------------------------------

    @property
    def wall(self) -> float:
        """Current virtual wall time, seconds (``perf_counter`` analog)."""
        return self._wall

    @property
    def cpu(self) -> float:
        """Current process CPU time, seconds (``process_time`` analog)."""
        return self._cpu

    # -- observers ----------------------------------------------------------

    def subscribe(self, callback: AdvanceCallback) -> None:
        """Register ``callback(wall_dt, cpu_dt)`` to fire after advances."""
        self._observers.append(callback)
        self._observed = True

    def unsubscribe(self, callback: AdvanceCallback) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        try:
            self._observers.remove(callback)
        except ValueError:
            pass
        self._observed = bool(self._observers) or self._faults is not None

    # -- advancing ----------------------------------------------------------

    def advance_cpu(self, dt: float) -> None:
        """A thread executed on-CPU for ``dt`` seconds.

        Advances both wall and CPU clocks, then polls ``signals`` if a
        deadline is crossed.
        """
        if dt <= 0.0:
            if dt < 0:
                raise ValueError(f"cannot advance clock by negative dt={dt}")
            return
        if self._observed:
            self.advance_cpu_unpolled(dt)
        else:
            self._cpu += dt
            self._wall += dt
        if self._cpu >= self.signals.cpu_deadline or self._wall >= self.signals.wall_deadline:
            self.signals.poll()

    def advance_cpu_unpolled(self, dt: float) -> None:
        """:meth:`advance_cpu` by ``dt > 0`` without the timer poll: the
        interpreter's per-op charge on an observed clock, whose crossed
        deadlines its eval-breaker check polls."""
        wall_dt = dt
        if self._faults is not None:
            wall_dt += self._faults.clock_jump()
        self._wall += wall_dt
        self._cpu += dt
        for cb in self._observers:
            cb(wall_dt, dt)

    def advance_wall(self, dt: float) -> None:
        """Wall time passed with no simulated CPU execution (IO wait, idle).

        Advances the wall clock only, then polls ``signals`` if a deadline
        is crossed.
        """
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        if dt == 0.0:
            return
        wall_dt = dt
        if self._faults is not None:
            wall_dt += self._faults.clock_jump()
        self._wall += wall_dt
        for cb in self._observers:
            cb(wall_dt, 0.0)
        if self._cpu >= self.signals.cpu_deadline or self._wall >= self.signals.wall_deadline:
            self.signals.poll()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(wall={self._wall:.6f}, cpu={self._cpu:.6f})"
