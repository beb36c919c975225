"""Unit tests for the fault-injection plane (repro.faults) and the
self-healing policy primitives (repro.serve.healing)."""

import pytest

from repro.errors import FaultError
from repro.faults import FaultInjector, FaultSpec, apply_fault_counters
from repro.serve.healing import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, RetryPolicy
from repro.workloads import pyperf_suite


# -- FaultSpec -------------------------------------------------------------


def test_spec_defaults_inject_nothing():
    spec = FaultSpec()
    assert not spec.injects_runtime_faults
    injector = FaultInjector(spec)
    assert injector.timer_expiry_fate() == "deliver"
    assert injector.signal_delay() == 0.0
    assert injector.clock_jump() == 0.0
    assert not injector.alloc_enomem()
    assert not injector.shim_reentrancy()
    assert injector.worker_crash(1) is None
    assert injector.worker_hang(1) == 0.0
    assert not injector.tear_write()
    assert injector.snapshot() == {}
    assert not injector.degrades_profile


@pytest.mark.parametrize(
    "bad",
    [
        {"signal_drop_rate": 1.5},
        {"signal_drop_rate": -0.1},
        {"enomem_rate": 2.0},
        {"crash_mode": "segfault"},
        {"signal_delay_s": -1.0},
        {"crash_attempts": -1},
        {"torn_writes": -2},
    ],
)
def test_spec_rejects_invalid_values(bad):
    with pytest.raises(FaultError):
        FaultSpec(**bad)


def test_spec_round_trips_and_rejects_unknown_fields():
    spec = FaultSpec(seed=7, signal_drop_rate=0.1, crash_attempts=2, crash_mode="exit")
    assert FaultSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(FaultError):
        FaultSpec.from_dict({"signal_dorp_rate": 0.1})
    with pytest.raises(FaultError):
        FaultSpec.from_dict("not a dict")


# -- FaultInjector ---------------------------------------------------------


def test_injector_is_deterministic_per_seed():
    def decisions(seed):
        injector = FaultInjector(FaultSpec(seed=seed, signal_drop_rate=0.3))
        return [injector.timer_expiry_fate() for _ in range(50)]

    assert decisions(42) == decisions(42)
    assert decisions(42) != decisions(43)


def test_injector_counts_every_fired_fault():
    injector = FaultInjector(FaultSpec(signal_drop_rate=1.0, enomem_rate=1.0))
    for _ in range(3):
        injector.timer_expiry_fate()
    injector.alloc_enomem()
    assert injector.snapshot() == {"signals_dropped": 3, "alloc_enomem": 1}


def test_crash_and_hang_are_attempt_schedules():
    injector = FaultInjector(
        FaultSpec(crash_attempts=2, crash_mode="exit", hang_attempts=1, hang_s=0.5)
    )
    assert injector.worker_crash(1) == "exit"
    assert injector.worker_crash(2) == "exit"
    assert injector.worker_crash(3) is None
    assert injector.worker_hang(1) == 0.5
    assert injector.worker_hang(2) == 0.0


def test_tear_write_tears_exactly_first_n():
    injector = FaultInjector(FaultSpec(torn_writes=2))
    assert [injector.tear_write() for _ in range(4)] == [True, True, False, False]
    assert injector.counters["torn_writes"] == 2


# -- apply_fault_counters / degraded profiles ------------------------------


def _tiny_profile():
    from repro.core.profile_data import LineReport, ProfileData

    return ProfileData(
        mode="full",
        elapsed=1.0,
        cpu_python_time=0.5,
        cpu_native_time=0.3,
        cpu_system_time=0.1,
        cpu_samples=10,
        mem_samples=5,
        peak_footprint_mb=8.0,
        total_copy_mb=1.0,
        gpu_mean_utilization=0.0,
        gpu_mem_peak_mb=0.0,
        lines=[
            LineReport(
                filename="w.py",
                lineno=1,
                function="f",
                source="x = 1",
                cpu_python_percent=60.0,
                cpu_native_percent=30.0,
                cpu_system_percent=10.0,
                mem_avg_mb=1.0,
                mem_peak_mb=2.0,
                mem_python_percent=50.0,
                mem_activity_percent=100.0,
                timeline=[],
                copy_mb_s=0.5,
                gpu_percent=0.0,
                gpu_mem_peak_mb=0.0,
            )
        ],
    )


def test_apply_fault_counters_marks_degraded_and_merges():
    profile = _tiny_profile()
    injector = FaultInjector(FaultSpec(signal_drop_rate=1.0))
    injector.timer_expiry_fate()
    injector.timer_expiry_fate()
    apply_fault_counters(profile, injector)
    assert profile.degraded
    assert profile.fault_counters == {"signals_dropped": 2}
    assert profile.invariant_violations() == []


def test_apply_fault_counters_flags_enabled_but_unfired_faults():
    # A schedule that MAY drop signals degrades the profile even if no
    # drop fired — the statistics are untrustworthy by construction.
    profile = _tiny_profile()
    injector = FaultInjector(FaultSpec(signal_drop_rate=0.5))
    apply_fault_counters(profile, injector)
    assert profile.degraded
    assert profile.fault_counters == {}


def test_apply_fault_counters_noop_without_faults():
    profile = _tiny_profile()
    apply_fault_counters(profile, None)
    apply_fault_counters(profile, FaultInjector(FaultSpec()))
    assert not profile.degraded
    assert profile.fault_counters == {}


def test_clamp_bounded_repairs_perturbed_numbers():
    profile = _tiny_profile()
    line = profile.lines[0]
    line.cpu_python_percent = 80.0
    line.cpu_native_percent = 40.0  # sums to >100 with system 10
    profile.total_copy_mb = -1.0
    profile.gpu_mean_utilization = 1.5
    assert profile.invariant_violations()
    profile.clamp_bounded()
    assert profile.invariant_violations() == []
    assert line.cpu_total_percent == pytest.approx(100.0)
    # Proportional rescale, not truncation: ratios are preserved.
    assert line.cpu_python_percent / line.cpu_native_percent == pytest.approx(2.0)
    assert profile.total_copy_mb == 0.0
    assert profile.gpu_mean_utilization == 1.0


def test_invariant_violations_reports_leak_likelihood():
    from repro.core.leak_detector import LeakReport

    profile = _tiny_profile()
    profile.leaks.append(
        LeakReport(
            filename="w.py",
            lineno=1,
            function="f",
            likelihood=1.7,
            leak_rate_mb_s=0.1,
            mallocs=10,
            frees=1,
        )
    )
    assert any("likelihood" in v for v in profile.invariant_violations())
    profile.clamp_bounded()
    assert profile.leaks[0].likelihood == 1.0
    assert profile.invariant_violations() == []


def test_degraded_fields_survive_serialization_and_merge():
    from repro.core.profile_data import ProfileData, merge_profiles

    faulty = _tiny_profile()
    faulty.degraded = True
    faulty.fault_counters = {"signals_dropped": 3, "clock_jumps": 1}
    clean = _tiny_profile()

    round_tripped = ProfileData.from_json(faulty.to_json())
    assert round_tripped.degraded
    assert round_tripped.fault_counters == faulty.fault_counters

    merged = merge_profiles([clean, faulty])
    assert merged.degraded  # pessimistic: any degraded input degrades
    assert merged.fault_counters == {"signals_dropped": 3, "clock_jumps": 1}
    two_faulty = merge_profiles([faulty, round_tripped])
    assert two_faulty.fault_counters == {"signals_dropped": 6, "clock_jumps": 2}


def test_degraded_banner_in_text_report():
    profile = _tiny_profile()
    assert "DEGRADED" not in profile.render_text()
    profile.degraded = True
    profile.fault_counters = {"signals_dropped": 3}
    text = profile.render_text()
    assert "DEGRADED" in text
    assert "signals_dropped=3" in text


# -- runtime wiring --------------------------------------------------------


def test_clock_jump_widens_wall_only():
    from repro.runtime.clock import VirtualClock

    clock = VirtualClock()
    clock.faults = FaultInjector(FaultSpec(clock_jump_rate=1.0, clock_jump_s=0.5))
    clock.advance_cpu(0.1)
    assert clock.cpu == pytest.approx(0.1)
    assert clock.wall == pytest.approx(0.6)  # 0.1 + injected 0.5 jump


def test_enomem_and_reentrancy_counted_on_alloc():
    from repro.runtime.clock import VirtualClock
    from repro.runtime.memsys import MemSubsystem

    mem = MemSubsystem(VirtualClock())
    mem.faults = FaultInjector(FaultSpec(enomem_rate=1.0, shim_reentrancy_rate=1.0))
    handle = mem.py_alloc(1024)
    mem.py_free(handle)
    mem.native_alloc(2048)
    counters = mem.faults.snapshot()
    assert counters["alloc_enomem"] == 2
    assert counters["shim_reentrancy"] == 2


def test_reentrant_alloc_bypasses_profiler_hooks():
    """The §3.1 hazard: a reentrant allocation moves memory but the
    installed profiler wrapper never observes the event."""
    from repro.runtime.clock import VirtualClock
    from repro.runtime.memsys import MemSubsystem

    events = []

    class SpyAllocator:
        def __init__(self, inner):
            self._inner = inner

        def alloc(self, nbytes, thread=None):
            events.append(("alloc", nbytes))
            return self._inner.alloc(nbytes, thread=thread)

        def free(self, handle, thread=None):
            events.append(("free", handle.nbytes))
            return self._inner.free(handle, thread=thread)

    mem = MemSubsystem(VirtualClock())
    mem.hooks.set_allocator(SpyAllocator(mem.hooks.get_allocator()))
    mem.faults = FaultInjector(FaultSpec(shim_reentrancy_rate=1.0))
    mem.py_alloc(4096)
    assert events == []  # memory moved, no event published
    assert mem.logical_footprint() >= 4096
    mem.faults = None
    mem.py_alloc(512)
    assert events == [("alloc", 512)]


def test_process_install_faults_threads_everywhere():
    from repro.runtime.process import SimProcess

    process = SimProcess("x = 1\n")
    injector = FaultInjector(FaultSpec(signal_drop_rate=0.5))
    process.install_faults(injector)
    assert process.faults is injector
    assert process.clock.faults is injector
    assert process.signals.faults is injector
    assert process.mem.faults is injector


# -- a harmless fault schedule ----------------------------------------------
#
# A clock with an observer or an injector advances through its observer
# path, which must deliver each timer signal at the op boundary an
# unobserved clock does: a line's python/native split rests on that
# boundary (signal-delay inference, §2.1).


def _cpu_profile_sha(name: str, leg: str) -> str:
    import hashlib

    from repro.core import Scalene

    process = pyperf_suite()[name].make_process(0.05)
    if leg == "observer":
        process.clock.subscribe(lambda wall_dt, cpu_dt: None)
    elif leg == "faults":
        process.install_faults(FaultInjector(FaultSpec(seed=1)))
    scalene = Scalene(process, mode="cpu")
    scalene.start()
    process.run()
    return hashlib.sha256(scalene.stop().to_json().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(pyperf_suite()))
def test_observer_or_empty_fault_schedule_keeps_the_cpu_profile(name):
    """A no-op clock observer and an injector whose every rate is 0
    leave each Table-1 program's ``cpu``-mode profile byte-identical."""
    plain = _cpu_profile_sha(name, "plain")
    assert _cpu_profile_sha(name, "observer") == plain
    assert _cpu_profile_sha(name, "faults") == plain


def test_retry_after_an_injected_crash_keeps_the_profile():
    """The attempt after a scheduled worker crash runs with the injector
    attached but no runtime fault enabled: its profile is not degraded,
    so it must equal the same job's profile without ``faults``."""
    from repro.serve.jobs import execute_job

    job = {"workload": "raytrace", "mode": "cpu", "scale": 0.02}
    retried = execute_job({**job, "faults": {"crash_attempts": 1}, "attempt": 2})
    assert retried == execute_job(job)


# -- RetryPolicy -----------------------------------------------------------


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, max_delay_s=0.5, jitter=0.0)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.4)
    assert policy.delay(4) == pytest.approx(0.5)  # capped
    assert policy.delay(100) == pytest.approx(0.5)  # huge attempts don't overflow
    assert policy.should_retry(4)
    assert not policy.should_retry(5)


def test_retry_policy_jitter_is_seeded():
    a = RetryPolicy(jitter=0.5, seed=3)
    b = RetryPolicy(jitter=0.5, seed=3)
    assert [a.delay(1) for _ in range(5)] == [b.delay(1) for _ in range(5)]
    assert all(RetryPolicy().base_delay_s <= d for d in (a.delay(1),))


# -- CircuitBreaker --------------------------------------------------------


def test_breaker_opens_after_consecutive_failures():
    now = [0.0]
    breaker = CircuitBreaker(3, cooldown_s=1.0, clock=lambda: now[0])
    for _ in range(2):
        breaker.record_failure("w")
    assert breaker.allow("w")  # still closed
    breaker.record_failure("w")
    assert breaker.state("w") == OPEN
    assert not breaker.allow("w")


def test_breaker_success_resets_consecutive_count():
    breaker = CircuitBreaker(3)
    breaker.record_failure("w")
    breaker.record_failure("w")
    breaker.record_success("w")
    breaker.record_failure("w")
    breaker.record_failure("w")
    assert breaker.state("w") == CLOSED


def test_breaker_half_open_probe_closes_or_reopens():
    now = [0.0]
    breaker = CircuitBreaker(1, cooldown_s=1.0, clock=lambda: now[0])
    breaker.record_failure("w")
    assert not breaker.allow("w")
    now[0] = 1.5  # cooldown passed: exactly one probe allowed
    assert breaker.allow("w")
    assert breaker.state("w") == HALF_OPEN
    assert not breaker.allow("w")  # a second caller must wait for the probe
    breaker.record_failure("w")  # probe failed: straight back to open
    assert breaker.state("w") == OPEN
    now[0] = 3.0
    assert breaker.allow("w")
    breaker.record_success("w")  # probe succeeded: closed again
    assert breaker.state("w") == CLOSED
    assert breaker.allow("w")


def test_breaker_keys_are_independent():
    breaker = CircuitBreaker(1)
    breaker.record_failure("bad")
    assert not breaker.allow("bad")
    assert breaker.allow("good")
    states = breaker.states()
    assert states["bad"]["state"] == OPEN
    assert "good" not in states  # untripped circuits stay out of /health
