"""Seeded differential fuzzing: the simulated VM vs. host CPython.

``tests/conftest.py`` hosts the generator (``generate_program``); each
seed deterministically produces one program in the supported subset,
which is executed by both the simulated interpreter and host ``exec``.
The printed output — the only observable channel the two share exactly —
must match line for line, with and without Scalene attached: profiling
never changes what a program prints. Profiled runs must also be
bit-identical whether their code object is compiled afresh or comes
warm from the compile cache.

A failure's test id contains the seed; reproduce the program with::

    python -c "from tests.conftest import generate_program; print(generate_program(<seed>))"
"""

from __future__ import annotations

import os
from typing import Optional

import pytest

from repro.core.scalene import Scalene
from repro.faults import FaultInjector, FaultSpec
from repro.runtime.process import SimProcess

from .conftest import generate_program, generate_threaded_program

#: Number of fuzz seeds; override with REPRO_FUZZ_SEEDS (e.g. for a long
#: nightly run). The acceptance floor for this suite is 200.
NUM_SEEDS = max(1, int(os.environ.get("REPRO_FUZZ_SEEDS", "200")))

#: Fixed base so seed k means the same program in every environment.
SEED_BASE = 77_000

#: Every seed also runs under Scalene in ``cpu`` mode; the first this many
#: run once more in ``full`` mode, with the memory hooks installed.
NUM_FULL_MODE_SEEDS = 10


def run_simulated(source: str, mode: Optional[str] = None) -> list:
    """Run ``source`` on the VM, profiled by Scalene in ``mode`` if given."""
    process = SimProcess(source, filename="fuzz.py")
    if mode is None:
        process.run()
    else:
        Scalene.run(process, mode=mode)
    return list(process.stdout)


def run_host(source: str) -> list:
    captured: list = []

    def host_print(*args):
        # Mirrors the simulated print builtin: space-joined str() of args.
        captured.append(" ".join(str(a) for a in args))

    namespace = {
        "print": host_print,
        "range": range,
        "len": len,
        "sum": sum,
    }
    exec(source, namespace)  # noqa: S102 - differential oracle
    return captured


@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + NUM_SEEDS))
def test_fuzzed_program_matches_host(seed):
    source = generate_program(seed)
    host_out = run_host(source)
    modes = [None, "cpu"]
    if seed < SEED_BASE + NUM_FULL_MODE_SEEDS:
        modes.append("full")
    for mode in modes:
        sim_out = run_simulated(source, mode)
        label = "simulated" if mode is None else f"simulated, profiled ({mode})"
        assert sim_out == host_out, (
            f"divergence at seed {seed}\n"
            f"--- program ---\n{source}\n"
            f"--- {label} ---\n" + "\n".join(sim_out) + "\n"
            f"--- host ---\n" + "\n".join(host_out)
        )


# ---------------------------------------------------------------------------
# Tier equivalence: one execution tier, cold and warm code objects
# ---------------------------------------------------------------------------
#
# The VM has a single execution tier, but compiled code objects are shared
# through the compile cache, and with them the threaded entries and the
# inline caches an earlier run filled in (DESIGN.md §6). Whether a run
# starts cold or warm must not change anything it or its profile shows.
#
# Nor may anything that watches the clock without acting on the program:
# a clock with an observer or a fault injector advances through its
# observer path, which must poll timers at the same op boundaries.

#: How a profiled run obtains its code object, in run order: compiled for
#: this run alone, with the compile cache off (cold inline caches); from
#: the cache; and from the cache again, warmed by the run before.
CODE_PATHS = ("fresh", "cached", "warm")

#: Harmless attachments to the clock, each run once more on cached code:
#: a no-op observer (what an out-of-process sampler subscribes), and a
#: fault injector whose every rate is 0.
CLOCK_LEGS = ("observer", "faults")


def run_profiled(
    source: str,
    *,
    cached: bool,
    threaded: bool = False,
    mode: str = "cpu",
    leg: Optional[str] = None,
):
    """Run ``source`` under Scalene in ``mode``, with the ``leg`` of
    :data:`CLOCK_LEGS` attached if given.

    Returns the code object the run executed and every observable the
    equivalence covers: program stdout, the scheduler's context-switch
    count, the canonical profile JSON, and the final simulated cpu/wall
    clocks (compared as exact floats, not approximately).
    """
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_CODE_CACHE", "1" if cached else "0")
        process = SimProcess(source, filename="fuzz.py")
    if threaded:
        from repro.interp.libs import install_standard_libraries

        install_standard_libraries(process)
    if leg == "observer":
        process.clock.subscribe(lambda wall_dt, cpu_dt: None)
    elif leg == "faults":
        process.install_faults(FaultInjector(FaultSpec(seed=1)))
    profiler = Scalene(process, mode=mode)
    profiler.start()
    process.run()
    profile = profiler.stop()
    return process.code, (
        list(process.stdout),
        process.scheduler.switch_count,
        profile.to_json(),
        process.clock.cpu,
        process.clock.wall,
    )


def assert_runs_identical(source: str, *, threaded: bool = False, mode: str = "cpu"):
    """Every code path and every clock leg matches the plain fresh run."""
    codes, results = {}, {}
    for path in CODE_PATHS:
        codes[path], results[path] = run_profiled(
            source, cached=path != "fresh", threaded=threaded, mode=mode
        )
    assert codes["warm"] is codes["cached"], "the warm run did not reuse the cached code"
    assert codes["fresh"] is not codes["cached"]
    for leg in CLOCK_LEGS:
        _, results[leg] = run_profiled(
            source, cached=True, threaded=threaded, mode=mode, leg=leg
        )
    baseline = results["fresh"]
    for path, result in results.items():
        assert result == baseline, (
            f"{path!r} run diverged from a plain fresh one\n"
            f"--- program ---\n{source}\n"
            f"fresh: switches={baseline[1]} cpu={baseline[3]!r} wall={baseline[4]!r}\n"
            f"{path}: switches={result[1]} cpu={result[3]!r} wall={result[4]!r}\n"
            f"stdout equal: {result[0] == baseline[0]}  "
            f"profile equal: {result[2] == baseline[2]}"
        )


@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + NUM_SEEDS))
def test_tier_equivalence(seed):
    """Fresh, cached and warm code objects, and runs with a no-op clock
    observer or an empty fault schedule, produce bit-identical stdout,
    schedule, profile JSON and clocks on every fuzzed program."""
    assert_runs_identical(generate_program(seed))


@pytest.mark.parametrize("seed", range(12))
def test_tier_equivalence_threaded(seed):
    """The threaded/async grammar: preemption points and the deterministic
    schedule do not depend on whether inline caches start cold or warm,
    nor on a clock observer or an empty fault schedule."""
    assert_runs_identical(generate_threaded_program(seed), threaded=True)


@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + NUM_FULL_MODE_SEEDS))
def test_tier_equivalence_full_mode(seed):
    """With memory hooks installed (mode=full), per-line memory
    attribution is bit-identical on cold and warm code objects, and
    with a clock observer or an empty fault schedule."""
    assert_runs_identical(generate_program(seed), mode="full")


def test_generator_is_deterministic():
    assert generate_program(SEED_BASE) == generate_program(SEED_BASE)


def test_generator_covers_features():
    """Across the seed range the generator exercises every advertised
    construct (guards against silent generator regressions that would
    hollow out the differential coverage)."""
    corpus = "\n".join(generate_program(s) for s in range(SEED_BASE, SEED_BASE + 60))
    for token in ("if ", "while ", "for ", "try:", "except:", "def fn0",
                  ".append(", ".get(", "//", "%", "print("):
        assert token in corpus, f"generator never produced {token!r}"
