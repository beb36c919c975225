"""POSIX-like interval timers and signal delivery for the simulated process.

This module reproduces the three properties of CPython signal handling that
Scalene's CPU profiler exploits (paper §2):

1. **Main-thread-only delivery.** Pending signals are only delivered when
   the *main* simulated thread is executing in the interpreter loop.
2. **Deferred delivery.** The interpreter checks for pending signals only at
   bytecode boundaries. While a native call runs, signals stay pending; the
   handler observes them *late*, and the delay is measurable on the process
   CPU clock. This is the signal-delay insight of §2.1.
3. **Pending collapse.** Multiple expirations of the same timer while
   deferred collapse into a single pending signal, exactly as a POSIX signal
   (non-realtime) would.

A :class:`~repro.faults.FaultInjector` may be attached (``manager.faults``)
to exercise the failure modes of this delivery machinery: individual timer
expirations can be *dropped* (lost in the kernel), *coalesced* (forcibly
merged into a neighbouring expiry), or *delayed* (held pending past their
natural delivery boundary). Without an injector, behaviour is unchanged.

Timers come in the three POSIX flavours: ``ITIMER_REAL`` ticks on wall time
and raises ``SIGALRM``; ``ITIMER_VIRTUAL`` ticks on process CPU time and
raises ``SIGVTALRM``; ``ITIMER_PROF`` ticks on CPU+system time and raises
``SIGPROF`` (in this simulation system time is not separately modelled at
the timer level, so PROF ticks on CPU time like VIRTUAL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import SignalError

# Signal numbers mirror Linux for familiarity.
SIGALRM = 14
SIGPROF = 27
SIGVTALRM = 26


class Timers:
    """Names for the itimer kinds (mirrors the ``signal`` module)."""

    ITIMER_REAL = "real"
    ITIMER_VIRTUAL = "virtual"
    ITIMER_PROF = "prof"


_TIMER_SIGNAL = {
    Timers.ITIMER_REAL: SIGALRM,
    Timers.ITIMER_VIRTUAL: SIGVTALRM,
    Timers.ITIMER_PROF: SIGPROF,
}

SignalHandler = Callable[[int], None]
"""Handlers receive the signal number; they inspect the process directly."""

_INF = float("inf")


@dataclass
class _IntervalTimer:
    kind: str
    interval: float
    deadline: float  # in the timer's own time base
    fired_at_wall: float = 0.0  # wall time of most recent expiry


class SignalManager:
    """Tracks interval timers, pending signals, and handler dispatch.

    The manager registers itself as its clock's ``signals``; the
    interpreter calls :meth:`deliver_pending` at bytecode boundaries of
    the main thread.

    It caches the earliest armed deadline of each time base
    (:attr:`cpu_deadline`, :attr:`wall_deadline`) and refreshes the cache
    in every method that changes a timer, so a clock advance that crosses
    no deadline costs two float compares instead of a timer scan.
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self._timers: Dict[str, _IntervalTimer] = {}
        self._pending: Dict[int, float] = {}  # signum -> wall time first raised
        self._handlers: Dict[int, SignalHandler] = {}
        #: Optional :class:`repro.faults.FaultInjector`: timer expirations
        #: may then be dropped, coalesced into the next expiry, or have
        #: their delivery embargoed by an extra delay.
        self.faults = None
        self._embargo: Dict[int, float] = {}  # signum -> deliverable-at wall
        #: Number of timer expirations that collapsed into an already
        #: pending signal (useful for diagnostics and tests).
        self.collapsed_count = 0
        #: Total signals delivered to handlers.
        self.delivered_count = 0
        #: Earliest deadline of the armed CPU-time timers (ITIMER_VIRTUAL,
        #: ITIMER_PROF) and of ITIMER_REAL; ``inf`` when none is armed.
        self.cpu_deadline = _INF
        self.wall_deadline = _INF
        clock.signals = self

    # -- configuration -------------------------------------------------------

    def setitimer(self, kind: str, interval: float) -> None:
        """Arm (or with ``interval == 0`` disarm) a repeating interval timer.

        Mirrors ``signal.setitimer(which, seconds, interval)`` with
        ``seconds == interval`` (the common profiling configuration).
        """
        if kind not in _TIMER_SIGNAL:
            raise SignalError(f"unknown itimer kind: {kind!r}")
        if interval < 0:
            raise SignalError(f"negative timer interval: {interval}")
        if interval == 0:
            self._timers.pop(kind, None)
        else:
            base = self._time_base(kind)
            self._timers[kind] = _IntervalTimer(kind, interval, base + interval)
        self._refresh_deadlines()

    def getitimer(self, kind: str) -> float:
        """Return the armed interval for ``kind`` (0.0 when disarmed)."""
        timer = self._timers.get(kind)
        return timer.interval if timer else 0.0

    def set_handler(self, signum: int, handler: Optional[SignalHandler]) -> None:
        """Install or (with ``None``) remove a handler for ``signum``."""
        if handler is None:
            self._handlers.pop(signum, None)
        else:
            self._handlers[signum] = handler

    def get_handler(self, signum: int) -> Optional[SignalHandler]:
        return self._handlers.get(signum)

    def raise_signal(self, signum: int) -> None:
        """Mark ``signum`` pending (as ``os.kill(pid, signum)`` would)."""
        if signum in self._pending:
            self.collapsed_count += 1
        else:
            self._pending[signum] = self._clock.wall

    # -- clock integration ---------------------------------------------------

    def _time_base(self, kind: str) -> float:
        if kind == Timers.ITIMER_REAL:
            return self._clock.wall
        return self._clock.cpu

    def _refresh_deadlines(self) -> None:
        cpu_dl = wall_dl = _INF
        for timer in self._timers.values():
            if timer.kind == Timers.ITIMER_REAL:
                if timer.deadline < wall_dl:
                    wall_dl = timer.deadline
            elif timer.deadline < cpu_dl:
                cpu_dl = timer.deadline
        self.cpu_deadline = cpu_dl
        self.wall_deadline = wall_dl

    def poll(self) -> None:
        """Expire any timers whose deadline has passed on the current clock.

        Timer state depends only on the clock's *absolute* time bases, so
        polling at arbitrary points is semantically identical to polling on
        every clock advance. The clock's advances and the interpreter's
        eval-breaker check therefore poll only when a cached deadline has
        been crossed; the interpreter's slice exits poll unconditionally,
        catching up a deadline its last op crossed.
        """
        faults = self.faults
        for timer in self._timers.values():
            base = self._time_base(timer.kind)
            # Catch up over any number of missed intervals; all expirations
            # collapse into one pending signal.
            fired = False
            while base >= timer.deadline:
                timer.deadline += timer.interval
                if faults is not None:
                    fate = faults.timer_expiry_fate()
                    if fate == "drop":
                        # Lost in the kernel: never becomes pending.
                        continue
                    if fate == "coalesce":
                        # Forcibly merged into a neighbouring expiry: the
                        # handler will observe one signal where two fired.
                        self.collapsed_count += 1
                        continue
                if fired:
                    self.collapsed_count += 1
                fired = True
            if fired:
                timer.fired_at_wall = self._clock.wall
                signum = _TIMER_SIGNAL[timer.kind]
                self.raise_signal(signum)
                if faults is not None:
                    delay = faults.signal_delay()
                    if delay > 0.0:
                        due = self._clock.wall + delay
                        if due > self._embargo.get(signum, 0.0):
                            self._embargo[signum] = due
        self._refresh_deadlines()

    def next_deadlines(self) -> Tuple[float, float]:
        """``(cpu_deadline, wall_deadline)`` of the earliest armed timers.

        The CPU slot covers ITIMER_VIRTUAL and ITIMER_PROF (both tick on
        process CPU time here); the wall slot covers ITIMER_REAL. Unarmed
        slots are ``inf``, so callers can use plain ``>=`` comparisons as a
        no-op fast path. A caller that keeps a copy must re-read it after
        anything that may run ``setitimer`` or :meth:`poll`.
        """
        return self.cpu_deadline, self.wall_deadline

    def next_wall_deadline(self) -> Optional[float]:
        """Wall time of the next ITIMER_REAL expiry (None when disarmed).

        The scheduler uses this to avoid leaping over timer expirations
        when every thread is blocked: a sleeping main thread must still be
        woken at each wall-timer tick (EINTR semantics).
        """
        return self.wall_deadline if Timers.ITIMER_REAL in self._timers else None

    # -- delivery -------------------------------------------------------------

    @property
    def has_pending(self) -> bool:
        """Whether any signal awaits delivery."""
        return bool(self._pending)

    def deliver_pending(self, thread) -> int:
        """Deliver all pending signals to their handlers.

        Called by the interpreter at a bytecode boundary of the **main**
        thread only; delivering from a subthread is a semantics violation
        and raises. Returns the number of handlers invoked.
        """
        if not self._pending:
            return 0
        if thread is not None and not thread.is_main:
            raise SignalError("signals may only be delivered to the main thread")
        delivered = 0
        # Snapshot: handlers may cause new signals to become pending; those
        # wait for the next boundary, as in a real kernel.
        pending = sorted(self._pending)
        for signum in pending:
            if self._embargo:
                # An injected delivery delay holds the signal pending past
                # its natural boundary (late-arrival fault).
                due = self._embargo.get(signum)
                if due is not None:
                    if self._clock.wall < due:
                        continue
                    del self._embargo[signum]
            self._pending.pop(signum, None)
            handler = self._handlers.get(signum)
            if handler is not None:
                handler(signum)
                delivered += 1
                self.delivered_count += 1
        return delivered

    def clear(self) -> None:
        """Drop all pending signals and disarm all timers."""
        self._pending.clear()
        self._embargo.clear()
        self._timers.clear()
        self._refresh_deadlines()
