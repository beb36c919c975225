"""The signal manager's deadline cache against a poll-on-every-advance reference.

``SignalManager`` caches the earliest armed CPU and wall deadlines, and
every ``VirtualClock.advance_cpu``/``advance_wall`` (``SimProcess.
charge_overhead`` included) scans the timers only when the advance
crosses one, whether the clock is observed or not. The reference below
is the behaviour the cache replaced: an observer that scans every timer
on every clock advance. Seeded sequences of timer, clock, signal and
overhead operations must leave the two in the same state after every
step, with and without a fault injector.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import SimProcess
from repro.faults import FaultInjector, FaultSpec
from repro.runtime.clock import VirtualClock
from repro.runtime.signals import SIGALRM, SIGPROF, SIGVTALRM, SignalManager, Timers

KINDS = (Timers.ITIMER_REAL, Timers.ITIMER_VIRTUAL, Timers.ITIMER_PROF)
SIGNALS = (SIGALRM, SIGVTALRM, SIGPROF)


def _reference(spec):
    """The reference: a subscribed observer runs a full timer scan on
    every clock advance."""
    clock = VirtualClock()
    signals = SignalManager(clock)
    clock.subscribe(lambda wall_dt, cpu_dt: signals.poll())
    if spec is not None:
        injector = FaultInjector(spec)
        clock.faults = injector
        signals.faults = injector
    return clock, signals


def _subject(spec, fault_mode):
    process = SimProcess()
    if fault_mode == "process":
        # Clock, signals and memory share the injector: every advance
        # asks it for a jump.
        process.install_faults(FaultInjector(spec))
    elif fault_mode == "signals":
        # Timer faults only: the clock stays unobserved.
        process.signals.faults = FaultInjector(spec)
    return process


def _state(clock, signals):
    return {
        "wall": clock.wall,
        "cpu": clock.cpu,
        "pending": dict(signals._pending),
        "embargo": dict(signals._embargo),
        "collapsed": signals.collapsed_count,
        "delivered": signals.delivered_count,
        "fired_at_wall": {k: t.fired_at_wall for k, t in signals._timers.items()},
        "deadlines": {k: t.deadline for k, t in signals._timers.items()},
    }


def _assert_cache_exact(signals):
    timers = signals._timers.values()
    cpu = [t.deadline for t in timers if t.kind != Timers.ITIMER_REAL]
    wall = [t.deadline for t in timers if t.kind == Timers.ITIMER_REAL]
    expected = (min(cpu, default=float("inf")), min(wall, default=float("inf")))
    assert (signals.cpu_deadline, signals.wall_deadline) == expected
    assert signals.next_deadlines() == expected
    assert signals.next_wall_deadline() == (wall[0] if wall else None)


durations = st.floats(min_value=0.0, max_value=0.03, allow_nan=False)
operations = st.one_of(
    st.tuples(
        st.just("setitimer"),
        st.sampled_from(KINDS),
        st.one_of(st.just(0.0), st.floats(min_value=0.001, max_value=0.02)),
    ),
    st.tuples(st.just("advance_cpu"), durations),
    st.tuples(st.just("advance_wall"), durations),
    st.tuples(st.just("charge"), durations),
    st.tuples(st.just("raise"), st.sampled_from(SIGNALS)),
    st.tuples(st.just("deliver")),
    st.tuples(st.just("clear")),
)
fault_specs = st.builds(
    FaultSpec,
    seed=st.integers(min_value=0, max_value=2**16),
    signal_drop_rate=st.sampled_from([0.0, 0.2]),
    signal_coalesce_rate=st.sampled_from([0.0, 0.3]),
    signal_delay_rate=st.sampled_from([0.0, 0.5]),
    signal_delay_s=st.sampled_from([0.002, 0.02]),
)


@settings(max_examples=120, deadline=None)
@given(
    ops=st.lists(operations, max_size=60),
    fault_mode=st.sampled_from([None, "signals", "process"]),
    spec=fault_specs,
)
def test_deadline_cache_matches_poll_every_advance(ops, fault_mode, spec):
    process = _subject(spec, fault_mode)
    subject_clock, subject = process.clock, process.signals
    clock, reference = _reference(spec if fault_mode else None)
    assert subject_clock._observed == (fault_mode == "process")
    for signals in (subject, reference):
        for signum in SIGNALS:
            signals.set_handler(signum, lambda signum: None)

    for op in ops:
        name = op[0]
        if name == "setitimer":
            subject.setitimer(op[1], op[2])
            reference.setitimer(op[1], op[2])
        elif name == "advance_cpu":
            subject_clock.advance_cpu(op[1])
            clock.advance_cpu(op[1])
        elif name == "advance_wall":
            subject_clock.advance_wall(op[1])
            clock.advance_wall(op[1])
        elif name == "charge":
            process.charge_overhead(process.main_thread, op[1])
            if op[1] > 0:
                clock.advance_cpu(op[1])
        elif name == "raise":
            subject.raise_signal(op[1])
            reference.raise_signal(op[1])
        elif name == "deliver":
            assert subject.deliver_pending(None) == reference.deliver_pending(None)
        else:
            subject.clear()
            reference.clear()
        _assert_cache_exact(subject)
        assert _state(subject_clock, subject) == _state(clock, reference)


def test_cache_follows_rearm_disarm_and_clear():
    clock = VirtualClock()
    signals = SignalManager(clock)
    inf = float("inf")
    assert signals.next_deadlines() == (inf, inf)
    signals.setitimer(Timers.ITIMER_PROF, 0.02)
    signals.setitimer(Timers.ITIMER_VIRTUAL, 0.01)
    signals.setitimer(Timers.ITIMER_REAL, 0.05)
    assert signals.next_deadlines() == (0.01, 0.05)
    clock.advance_cpu(0.015)  # VIRTUAL expires and re-arms one interval on
    assert signals.has_pending
    assert signals.next_deadlines() == (0.02, 0.05)
    signals.setitimer(Timers.ITIMER_REAL, 0)
    assert signals.next_wall_deadline() is None
    assert signals.next_deadlines() == (0.02, inf)
    signals.clear()
    assert signals.next_deadlines() == (inf, inf)


def test_clock_fast_path_follows_observers_and_faults():
    process = SimProcess()
    clock = process.clock
    assert clock.signals is process.signals
    assert not clock._observed
    seen = []

    def observer(wall_dt, cpu_dt):
        seen.append(cpu_dt)

    clock.subscribe(observer)
    assert clock._observed
    process.signals.setitimer(Timers.ITIMER_VIRTUAL, 0.001)
    process.charge_overhead(process.main_thread, 0.001)
    assert seen == [0.001]  # an external sampler sees every charge
    assert process.signals.has_pending  # and the charge polled the timer
    clock.unsubscribe(observer)
    assert not clock._observed
    clock.faults = FaultInjector(FaultSpec(seed=1))
    assert clock._observed
    clock.faults = None
    assert not clock._observed
    # A clock no signal manager claimed polls nothing.
    bare = VirtualClock()
    bare.advance_cpu(1.0)
    bare.advance_wall(1.0)
    assert (bare.cpu, bare.wall) == (1.0, 2.0)
