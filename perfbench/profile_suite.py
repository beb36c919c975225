"""``profile_suite``: the paper's own overhead experiment, in process.

One caller in a closed loop profiles the ten Table-1 programs in Scalene
``full`` mode at the default scale, round after round, each round in a
seeded order; caches are warm, as in a long-lived worker. One profiled
run is ``make_process`` → ``Scalene.start`` → ``process.run`` →
``Scalene.stop`` → ``ProfileData.to_json``, and every profile's JSON must
hash to the digest recorded for its program and scale.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from common import (
    BENCH_DIR, ROOT, WORK, BenchError, Tracer, geomean, load_json, product_env, quantile,
)
from layers import execute_timings, mode_differential, store_timings

SCALE = 0.2
MODE = "full"
#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUPS = 5


def cold_setup() -> Dict:
    """Median over fresh processes of import + cold build of the suite."""
    totals, builds = [], {}
    for _ in range(SETUPS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "cold_build.py"), str(SCALE)],
            cwd=ROOT, env=product_env(), capture_output=True, text=True,
            timeout=120, check=False,
        )
        if out.returncode != 0:
            raise BenchError(f"cold build failed: {out.stderr.strip()[-500:]}")
        report = json.loads(out.stdout.strip().splitlines()[-1])
        totals.append(report["total_s"])
        for name, ms in report["build_ms"].items():
            builds.setdefault(name, []).append(ms)
    return {"setup_s": statistics.median(totals),
            "build_ms": {n: statistics.median(v) for n, v in builds.items()}}


def profiled_run(workload, tracer: Tracer, trace_id: str):
    """One profiled run; returns ``(seconds, profile JSON text)``."""
    from repro.core import Scalene

    t0 = time.perf_counter()
    process = workload.make_process(SCALE)
    t1 = time.perf_counter()
    scalene = Scalene(process, mode=MODE)
    scalene.start()
    t2 = time.perf_counter()
    process.run()
    t3 = time.perf_counter()
    profile = scalene.stop()
    t4 = time.perf_counter()
    text = profile.to_json()
    t5 = time.perf_counter()
    for name, start, end in (("interp.make_process", t0, t1), ("core.start", t1, t2),
                             ("interp.run", t2, t3), ("core.stop", t3, t4),
                             ("core.to_json", t4, t5)):
        tracer.add(name, trace_id, start, end, parent="bench.profile_run")
    tracer.add("bench.profile_run", trace_id, t0, t5)
    return t5 - t0, text


def run(seed: int, seconds: float, trace: bool, out, digests=None) -> Dict:
    from repro.workloads import pyperf_suite

    digests = digests if digests is not None else load_json("digests.json")["profile_suite"]
    suite = pyperf_suite()
    rng = random.Random(seed)
    setup = cold_setup()
    untraced, traced = Tracer(False), Tracer(True)
    attempted = failed = 0
    mismatched: List[str] = []

    def check(name: str, text: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != digests.get(name):
            failed += 1
            mismatched.append(name)

    for name in suite:  # warm caches, as a long-lived worker has them
        check(name, profiled_run(suite[name], untraced, "warmup")[1])

    times: Dict[bool, Dict[str, List[float]]] = {False: {}, True: {}}
    last_text: Dict[str, str] = {}
    started = time.perf_counter()
    rounds = 0
    # Whole rounds only, so every program runs equally often. A traced
    # run alternates untraced and traced rounds to measure the tracing
    # overhead on the same box at the same time.
    while rounds < (2 if trace else 1) or time.perf_counter() - started < seconds:
        order = list(suite)
        rng.shuffle(order)
        tracing = trace and rounds % 2 == 1
        for name in order:
            seconds_taken, text = profiled_run(
                suite[name], traced if tracing else untraced, f"{name}#{rounds}"
            )
            times[tracing].setdefault(name, []).append(seconds_taken)
            check(name, text)
            last_text[name] = text
        rounds += 1
    loop_s = time.perf_counter() - started

    plain = times[False]
    medians = {name: statistics.median(v) * 1000.0 for name, v in plain.items()}
    pooled = [s * 1000.0 for v in plain.values() for s in v]
    runs = sum(len(v) for t in times.values() for v in t.values())
    print(f"profile_suite: {len(suite)} programs, scale {SCALE}, mode {MODE}, "
          f"{rounds} rounds, {runs} profiled runs in {loop_s:.2f} s", file=out)
    print(f"  {'program':<28} {'runs':>4} {'median ms':>10} {'cold build ms':>14}  digest",
          file=out)
    for name in suite:
        ok = "ok" if name not in mismatched else "MISMATCH"
        print(f"  {name:<28} {len(plain[name]):4d} {medians[name]:10.2f} "
              f"{setup['build_ms'][name]:14.2f}  {ok}", file=out)
    profile_ms = geomean(list(medians.values()))
    print(f"  profile_ms (geomean of per-program medians) {profile_ms:.3f} ms", file=out)

    result = {"attempted": attempted, "failed": failed}
    if not trace:
        result["metrics"] = {
            "latency_p50_ms": profile_ms,
            "latency_p90_ms": quantile(pooled, 0.90),
            "throughput_per_s": len(pooled) / loop_s,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result

    traced_ms = geomean([statistics.median(v) * 1000.0 for v in times[True].values()])
    print(f"tracing overhead: traced minus untraced profile_ms "
          f"{traced_ms - profile_ms:+.3f} ms ({traced_ms:.3f} vs {profile_ms:.3f})", file=out)
    traced.report(out)
    inputs = [(name, SCALE) for name in suite]
    layers = mode_differential(inputs, reps=3)
    print("one profiled run by layer, from the mode differential (geomean ms):", file=out)
    for name in ("interp.vm_ms", "core.cpu_sampler_ms", "core.gpu_sampler_ms",
                 "memory.hooks_ms", "core.stop_ms", "core.to_json_ms"):
        print(f"  {name:<28} {layers[name]:10.3f}", file=out)
    from repro.core.profile_data import ProfileData

    payloads = [{"workload": name, "mode": MODE, "scale": SCALE} for name in suite]
    layers["jobs.execute_ms"] = execute_timings(payloads, reps=1)
    # The suite's profiles pushed through the store layers on an empty
    # scratch store (this workload keeps no history).
    profiles = [(p, ProfileData.from_json(last_text[p["workload"]])) for p in payloads]
    layers.update(store_timings(None, WORK / "scratch-store", profiles, list(suite)))
    traced.write(WORK / f"trace-profile_suite-seed{seed}.json")
    result["metrics"] = layers
    return result
