"""Side timings of the traced run: the benchmark's own calls into each
layer's public functions, on the workload's inputs.

* :func:`mode_differential` runs every input bare and under each public
  Scalene mode, interleaved, so a layer's cost is a difference of modes
  (``cpu`` minus bare is the CPU sampler, ``full`` minus ``cpu+gpu`` is
  the memory-hook chain) rather than a probe inside the program.
* :func:`store_timings` times ``ProfileStore.put``/``find`` and
  ``StreamingAggregator.ingest`` plus the JSON of its state on a scratch
  copy of one store partition — the writes a deep store makes slow.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import geomean

MODES = ("bare", "cpu", "cpu+gpu", "full")


def mode_differential(inputs: Sequence[Tuple[str, float]], reps: int) -> Dict[str, float]:
    """Per-layer host costs of one profiled run, geomean over ``inputs``
    (``(program, scale)`` pairs) of each input's median over ``reps``."""
    from repro.core import Scalene
    from repro.interp.astcompile import clear_code_cache
    from repro.workloads import get_workload

    runs: Dict[Tuple[int, str], List[float]] = {}
    steps: Dict[Tuple[int, str], List[float]] = {}
    counts = {"instructions": 0, "alloc_events": 0, "samples": 0}
    for rep in range(reps):
        for index, (name, scale) in enumerate(inputs):
            workload = get_workload(name)
            if rep == 0:
                clear_code_cache()
                t0 = time.perf_counter()
                workload.make_process(scale)
                steps.setdefault((index, "compile"), []).append(time.perf_counter() - t0)
            for mode in MODES:
                process = workload.make_process(scale)
                scalene = None
                if mode != "bare":
                    scalene = Scalene(process, mode=mode)
                    scalene.start()
                t0 = time.perf_counter()
                process.run()
                runs.setdefault((index, mode), []).append(time.perf_counter() - t0)
                if mode == "bare" and rep == 0:
                    counts["instructions"] += process.vm.instruction_count
                if mode != "full":
                    continue
                t0 = time.perf_counter()
                profile = scalene.stop()
                t1 = time.perf_counter()
                text = profile.to_json()
                t2 = time.perf_counter()
                type(profile).from_json(text)
                t3 = time.perf_counter()
                for step, seconds in (("stop", t1 - t0), ("to_json", t2 - t1),
                                      ("from_json", t3 - t2)):
                    steps.setdefault((index, step), []).append(seconds)
                if rep == 0:
                    counts["alloc_events"] += scalene.memory_profiler.event_count
                    counts["samples"] += scalene.memory_profiler.sample_count

    def ms(table, key) -> float:
        return 1000.0 * geomean(
            [statistics.median(table[(i, key)]) for i in range(len(inputs))]
        )

    by_mode = {mode: ms(runs, mode) for mode in MODES}
    return {
        "interp.compile_ms": ms(steps, "compile"),
        "interp.vm_ms": by_mode["bare"],
        "interp.instructions": counts["instructions"],
        "core.cpu_sampler_ms": by_mode["cpu"] - by_mode["bare"],
        "core.gpu_sampler_ms": by_mode["cpu+gpu"] - by_mode["cpu"],
        "memory.hooks_ms": by_mode["full"] - by_mode["cpu+gpu"],
        "memory.alloc_events": counts["alloc_events"],
        "memory.samples": counts["samples"],
        "core.stop_ms": ms(steps, "stop"),
        "core.to_json_ms": ms(steps, "to_json"),
        "core.from_json_ms": ms(steps, "from_json"),
        "core.full_over_bare": by_mode["full"] / by_mode["bare"],
    }


def execute_timings(payloads: Sequence[Dict], reps: int = 2) -> float:
    """``execute_job`` in this process: geomean over the distinct
    payloads of the median host time, in ms."""
    from repro.serve.jobs import execute_job

    distinct = {json.dumps(p, sort_keys=True): p for p in payloads}
    medians = []
    for payload in distinct.values():
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            execute_job(payload)
            times.append(time.perf_counter() - t0)
        medians.append(statistics.median(times))
    return 1000.0 * geomean(medians)


def store_timings(partition: Optional[Path], scratch: Path, new_profiles: Sequence,
                  workloads: Sequence[str]) -> Dict[str, float]:
    """``put`` of profiles the partition lacks, ``find(workload=…)``, and
    a sketch ingest plus the JSON of the whole sketch state, on a scratch
    copy of ``partition`` (an empty store when ``partition`` is None)."""
    from repro.serve.store import ProfileStore, config_hash
    from repro.serve.streaming import StreamingAggregator

    if scratch.exists():
        shutil.rmtree(scratch)
    if partition is not None:
        shutil.copytree(partition, scratch)
    store = ProfileStore(scratch)
    sketch_file = scratch / "sketches.json"
    aggregator = (
        StreamingAggregator.from_dict(json.loads(sketch_file.read_text(encoding="utf-8")))
        if sketch_file.exists()
        else StreamingAggregator()
    )
    put_s, ingest_s, find_s = [], [], []
    for index, (payload, profile) in enumerate(new_profiles):
        config = config_hash({"mode": payload["mode"], "scale": payload["scale"],
                              "overrides": {}})
        t0 = time.perf_counter()
        profile_id = store.put(profile, workload=payload["workload"], config=config,
                               created_at=2.0e9 + index)
        put_s.append(time.perf_counter() - t0)
        entry = store.entry(profile_id)
        t0 = time.perf_counter()
        aggregator.ingest(entry, profile)
        json.dumps(aggregator.to_dict())
        ingest_s.append(time.perf_counter() - t0)
    for name in workloads:
        t0 = time.perf_counter()
        store.find(workload=name)
        find_s.append(time.perf_counter() - t0)
    shutil.rmtree(scratch)
    return {
        "store.put_ms": 1000.0 * statistics.median(put_s),
        "store.find_ms": 1000.0 * statistics.median(find_s),
        "streaming.ingest_save_ms": 1000.0 * statistics.median(ingest_s),
    }
