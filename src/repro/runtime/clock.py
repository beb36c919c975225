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

Observers may subscribe to time advancement; the
:class:`~repro.runtime.signals.SignalManager` uses this to expire interval
timers at exactly the right virtual instant.
"""

from __future__ import annotations

from typing import Callable, List

AdvanceCallback = Callable[[float, float], None]
"""Callback invoked as ``cb(wall_dt, cpu_dt)`` after every clock advance."""


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

    __slots__ = ("_wall", "_cpu", "_observers", "_faults", "_fast_path")

    def __init__(self) -> None:
        self._wall = 0.0
        self._cpu = 0.0
        self._observers: List[AdvanceCallback] = []
        self._faults = None
        # Whether an advance may skip the observer dispatch (the VM's fast
        # clock, advance_cpu_inline): the signal manager, subscribed at
        # process construction, is the only observer, and no fault injector
        # decides clock jumps. External samplers (py-spy/Austin baselines)
        # subscribe and must see every advance. Kept current by subscribe,
        # unsubscribe and the faults setter.
        self._fast_path = True

    @property
    def faults(self):
        """Optional :class:`repro.faults.FaultInjector` (clock-jump faults)."""
        return self._faults

    @faults.setter
    def faults(self, injector) -> None:
        self._faults = injector
        self._update_fast_path()

    def _update_fast_path(self) -> None:
        self._fast_path = len(self._observers) <= 1 and self._faults is None

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
        self._update_fast_path()

    def unsubscribe(self, callback: AdvanceCallback) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        try:
            self._observers.remove(callback)
        except ValueError:
            pass
        self._update_fast_path()

    # -- advancing ----------------------------------------------------------

    def advance_cpu(self, dt: float) -> None:
        """A thread executed on-CPU for ``dt`` seconds.

        Advances both wall and CPU clocks.
        """
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        if dt == 0.0:
            return
        wall_dt = dt
        if self._faults is not None:
            wall_dt += self._faults.clock_jump()
        self._wall += wall_dt
        self._cpu += dt
        for cb in self._observers:
            cb(wall_dt, dt)

    def advance_cpu_inline(self, dt: float, signals) -> None:
        """:meth:`advance_cpu` for the process's ``signals`` manager, with
        its observer call inlined on the fast path: advance both clocks and
        poll ``signals`` only when a cached deadline is crossed. The clock
        values and timer expirations are those of :meth:`advance_cpu`.
        """
        if not self._fast_path or dt <= 0:
            self.advance_cpu(dt)
            return
        cpu = self._cpu = self._cpu + dt
        wall = self._wall = self._wall + dt
        if cpu >= signals.cpu_deadline or wall >= signals.wall_deadline:
            signals.poll()

    def advance_wall(self, dt: float) -> None:
        """Wall time passed with no simulated CPU execution (IO wait, idle).

        Advances the wall clock only.
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(wall={self._wall:.6f}, cpu={self._cpu:.6f})"
