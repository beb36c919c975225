"""Fast-path scenarios on the one execution tier: cold vs. warm code.

These scenario programs were written to drive the removed trace-JIT tier
through its deoptimization paths — type-instability guard failures,
inline-cache invalidation, signal deadlines, the memory hooks, fault
injection, the ``REPRO_VERIFY`` compile toggle, allocation churn. The
interpreter keeps fast paths of its own on the same scenarios: compiled
code objects are shared through the compile cache, and with them the
threaded entries and the inline caches a run fills in (DESIGN.md §6).

So each scenario runs on a code object compiled for that run alone
(cold inline caches) and on the cached code object after an earlier run
warmed it. The two must agree exactly — same stdout, same profile, same
per-line ground truth — and each test also checks that its scenario
exercises the path it names.
"""

from __future__ import annotations

import json

import pytest

from repro.core.scalene import Scalene
from repro.faults import FaultInjector, FaultSpec
from repro.interp import opcodes as op
from repro.runtime.process import SimProcess

#: Hot loop with a type flip: element 35 is a string, so ``xs[j] + 1``
#: succeeds 39 times per round and raises once, recovered by the except
#: handler.
TYPE_FLIP = """
xs = []
i = 0
while i < 40:
    if i == 35:
        xs.append("s")
    else:
        xs.append(i)
    i = i + 1
hits = 0
errs = 0
r = 0
while r < 25:
    j = 0
    while j < 40:
        try:
            hits = hits + (xs[j] + 1)
        except:
            errs = errs + 1
        j = j + 1
    r = r + 1
print(hits, errs)
"""

#: Bound-method load with an alternating receiver: the LOAD_ATTR inline
#: cache is monomorphic (identity-keyed), so every iteration invalidates
#: it for the other list.
ATTR_FLIP = """
xs = []
ys = []
i = 0
while i < 300:
    if i % 2 == 0:
        o = xs
    else:
        o = ys
    m = o.append
    i = i + 1
print(i)
"""

#: Plain hot loop: long enough for many timer signals and memory-hook events.
HOT_LOOP = """
i = 0
acc = 0
while i < 8000:
    acc = acc + i * 3 - (i // 7)
    i = i + 1
print(acc)
"""

#: Allocation-heavy loop: a fresh list plus churn every iteration, so
#: per-line alloc/free ground truth is sensitive to any double-charge.
CHURN_LOOP = """
r = 0
total = 0
while r < 400:
    row = [r, r + 1, r + 2]
    total = total + row[0] + row[2]
    r = r + 1
print(total)
"""


def _run(source, *, cached, faults=None, mode=None, ground_truth=False, verify="1"):
    """Run ``source`` once. ``cached=False`` compiles a code object for
    this run alone; ``cached=True`` takes it from the compile cache, so a
    cached run reuses the threaded entries and inline caches that earlier
    cached runs of the same source filled in. The program's globals are
    kept as they stood at exit, before teardown clears them."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_CODE_CACHE", "1" if cached else "0")
        env.setenv("REPRO_VERIFY", verify)
        process = SimProcess(
            source, filename="deopt.py", collect_ground_truth=ground_truth
        )
    if faults is not None:
        process.install_faults(FaultInjector(faults))
    exit_globals = {}
    process.atexit_hooks.append(lambda: exit_globals.update(process.globals))
    profiler = None
    if mode:
        profiler = Scalene(process, mode=mode)
        profiler.start()
    process.run()
    profile_json = profiler.stop().to_json() if profiler else None
    return {
        "process": process,
        "scalene": profiler,
        "stdout": list(process.stdout),
        "globals": exit_globals,
        "profile": profile_json,
        "gt": process.ground_truth,
    }


def _cold_and_warm(source, **kwargs):
    """A run on a fresh code object, and one on a cached code object that
    an earlier run has warmed."""
    cold = _run(source, cached=False, **kwargs)
    warming = _run(source, cached=True, **kwargs)
    warm = _run(source, cached=True, **kwargs)
    assert warm["process"].code is warming["process"].code, "cache not reused"
    assert cold["process"].code is not warm["process"].code
    return cold, warm


def _gt_lines(result):
    """Per-line ground truth as comparable tuples (attribution contract)."""
    return {
        key: (
            truth.python_time,
            truth.python_alloc_bytes,
            truth.python_free_bytes,
        )
        for key, truth in result["gt"].lines.items()
    }


def _load_attr_receivers(process):
    """The receiver each LOAD_ATTR inline cache of the module holds."""
    return [
        entry[4][0]
        for instr, entry in zip(process.code.instructions, process.code._threaded)
        if instr.opcode == op.LOAD_ATTR
    ]


def test_type_instability_deopts_with_exact_attribution():
    cold, warm = _cold_and_warm(TYPE_FLIP, ground_truth=True)
    assert warm["stdout"] == cold["stdout"] == ["19600 25"]
    assert _gt_lines(warm) == _gt_lines(cold), "per-line attribution diverged"


def test_inline_cache_invalidation_deopts():
    """Every alternate receiver misses the identity-keyed cache, and a
    warm cache still holding the previous run's receiver misses too."""
    cold, warm = _cold_and_warm(ATTR_FLIP, ground_truth=True)
    assert warm["stdout"] == cold["stdout"] == ["300"]
    for result in (cold, warm):
        # The last iteration loads ``ys.append``: the cache holds this
        # run's ``ys``, not ``xs`` and not an earlier run's list.
        assert _load_attr_receivers(result["process"]) == [result["globals"]["ys"]]
    assert _gt_lines(warm) == _gt_lines(cold)


def test_signal_deadlines_respected_mid_trace():
    """With the CPU profiler attached, timer signals fire inside the hot
    loop and the sampled profile is bit-identical on cold and warm code."""
    cold, warm = _cold_and_warm(HOT_LOOP, mode="cpu")
    assert warm["stdout"] == cold["stdout"]
    assert json.loads(cold["profile"])["cpu"]["samples"] > 0, "no timer signal"
    assert warm["profile"] == cold["profile"]


def test_memory_hooks_loud_path_bit_identical():
    """Full mode attaches the allocation hooks, so every churn site in the
    loop reaches the memory profiler; it sees the same events and writes
    the same profile on cold and warm code."""
    cold, warm = _cold_and_warm(HOT_LOOP, mode="full")
    assert warm["stdout"] == cold["stdout"]
    events = cold["scalene"].memory_profiler.event_count
    assert events > 0, "memory hooks never fired"
    assert warm["scalene"].memory_profiler.event_count == events
    assert warm["profile"] == cold["profile"]


def test_fault_plane_disables_trace_entry():
    """A fault injector makes every clock advance observed (each may
    jump); faulted runs under the same spec stay bit-identical on cold
    and warm code."""
    spec = FaultSpec(seed=1, signal_drop_rate=0.3)
    cold, warm = _cold_and_warm(HOT_LOOP, faults=spec, mode="cpu")
    for result in (cold, warm):
        assert result["process"].clock._observed
    assert warm["stdout"] == cold["stdout"]
    assert warm["profile"] == cold["profile"]


def test_repro_verify_composes_with_jit():
    """A verified and an unverified compile of the hot loop are distinct
    cached code objects, and they run identically."""
    verified = _run(HOT_LOOP, cached=True, verify="1", ground_truth=True)
    unverified = _run(HOT_LOOP, cached=True, verify="0", ground_truth=True)
    assert unverified["process"].code is not verified["process"].code
    assert verified["stdout"] == unverified["stdout"] == ["91420571"]
    assert _gt_lines(verified) == _gt_lines(unverified)


def test_churn_is_not_double_counted():
    """Alloc/free ground truth per line must match exactly, and the
    per-line alloc bytes must add up to what pymalloc handed out: a churn
    object recorded twice would show here."""
    cold, warm = _cold_and_warm(CHURN_LOOP, ground_truth=True)
    assert warm["stdout"] == cold["stdout"] == ["160400"]
    assert _gt_lines(warm) == _gt_lines(cold)
    for result in (cold, warm):
        process = result["process"]
        recorded = sum(t.python_alloc_bytes for t in result["gt"].lines.values())
        # The module frame is allocated before any line runs, so no line
        # owns it; every other allocation belongs to exactly one line.
        module_frame = process.vm.config.frame_object_bytes
        assert recorded + module_frame == process.mem.pymalloc.total_bytes_allocated
