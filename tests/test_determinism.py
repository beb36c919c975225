"""Seeded determinism under faults: same seed + same FaultSpec ⇒ same run.

The whole simulation — scheduler picks, signal delivery, fault
decisions, virtual clocks — is driven by seeded PRNGs and a virtual
clock, so two runs of the same threaded program with identical fault
specs must agree *bit for bit*: same stdout, same context-switch count,
same serialized profile. Any hidden dependence on host state (wall
clock, dict order, object ids) breaks this property immediately.
"""

from __future__ import annotations

import pytest

from repro.core.scalene import Scalene
from repro.faults import FaultInjector, FaultSpec
from repro.interp.libs import install_standard_libraries
from repro.runtime.process import SimProcess

from tests.conftest import generate_threaded_program

SEEDS = list(range(12))


def _run(seed: int, spec: FaultSpec):
    source = generate_threaded_program(seed)
    process = SimProcess(source, filename=f"det_{seed}.py")
    install_standard_libraries(process)
    process.install_faults(FaultInjector(spec))
    scalene = Scalene(process, mode="cpu")
    scalene.start()
    process.run()
    profile = scalene.stop()
    return (
        list(process.stdout),
        process.scheduler.switch_count,
        profile.to_json(),
    )


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_faults_bit_identical(seed):
    spec = FaultSpec(seed=seed, signal_drop_rate=0.3)
    first = _run(seed, spec)
    second = _run(seed, spec)
    assert first[0] == second[0], "stdout diverged between identical runs"
    assert first[1] == second[1], "schedule (switch count) diverged"
    assert first[2] == second[2], "serialized profile diverged"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_clean_runs_are_also_deterministic(seed):
    spec = FaultSpec(seed=seed)
    assert _run(seed, spec) == _run(seed, spec)


# ---------------------------------------------------------------------------
# Code objects: no state may reach a run through a shared code object
# ---------------------------------------------------------------------------
#
# Compiled code objects, their threaded entries and their inline caches
# are shared between runs through the compile cache. The two tests below
# take their names from the trace-JIT tier they once forced on; on the one
# remaining tier they check determinism across fresh and warm code.


def _run_code(seed: int, spec: FaultSpec, *, cached: bool):
    """``_run`` with the compile cache on (``cached``) or off, in which
    case the run compiles a code object of its own, with cold caches."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_CODE_CACHE", "1" if cached else "0")
        return _run(seed, spec)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_jit_runs_bit_identical_under_faults(seed):
    """Same seed + same FaultSpec ⇒ bit-identical runs when each run
    compiles its own code: the interpreter adds no hidden host-state
    dependence."""
    spec = FaultSpec(seed=seed, signal_drop_rate=0.3)
    first = _run_code(seed, spec, cached=False)
    second = _run_code(seed, spec, cached=False)
    assert first == second


@pytest.mark.chaos
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_jit_profile_counters_match_interpreter_under_faults(seed):
    """Under signal drops and clock jumps, a run on a fresh code object
    and one on a cached code object that an earlier run warmed observe
    the exact same schedule and attribution."""
    spec = FaultSpec(seed=seed, signal_drop_rate=0.3, clock_jump_rate=0.1)
    fresh = _run_code(seed, spec, cached=False)
    _run_code(seed, spec, cached=True)  # fills the cached code's inline caches
    warm = _run_code(seed, spec, cached=True)
    assert warm[0] == fresh[0], "stdout diverged between fresh and warm code"
    assert warm[1] == fresh[1], "schedule diverged between fresh and warm code"
    assert warm[2] == fresh[2], "profile counters diverged between fresh and warm code"


@pytest.mark.chaos
def test_different_fault_seeds_may_diverge_but_never_crash():
    # Different injector seeds reschedule signals; the program must still
    # complete and profile cleanly under every one of them.
    program_seed = 3
    for fault_seed in range(5):
        spec = FaultSpec(seed=fault_seed, signal_drop_rate=0.5)
        stdout, switches, payload = _run(program_seed, spec)
        assert stdout[-1].startswith("joined")
        assert switches > 0
        assert payload
