"""The seeded profile history behind ``serve_history``.

A history is built once per seed through the public ``ProfileStore`` and
``StreamingAggregator`` APIs: distinct profiles (real profiles of the
suite, each with seeded jitter on its timings) spread over many index
keys (program × mode × scale) and several source trees, with the sketch
state persisted next to the store as after a clean restart. With two
shards every profile lives on both (primary plus replica), so one
partition serves as both shards' store. Histories are cached per seed
under the work directory and copied per run, so ``setup_s`` counts only
the service's boot.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from pathlib import Path
from typing import Dict

from common import SRC, WORK

#: Distinct stored profiles in each shard's partition.
PROFILES = 1500
#: Scales of past runs; with the programs and modes they make the keys.
SCALES = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
#: Source trees the history was recorded at.
TREES = 8
#: Base profiles jittered into history entries.
BASE_SCALE = 0.02
BASE_MODES = ("cpu", "full")
#: A fixed epoch keeps every cached history byte-identical per seed.
EPOCH = 1.7e9


def _cache_key() -> str:
    """Changes whenever the history parameters or the on-disk formats
    they are written in change, so a stale cache is never copied."""
    digest = hashlib.sha256(
        repr((PROFILES, SCALES, TREES, BASE_SCALE, BASE_MODES, EPOCH)).encode()
    )
    for rel in ("repro/serve/store.py", "repro/serve/streaming.py",
                "repro/core/profile_data.py"):
        digest.update((SRC / rel).read_bytes())
    return digest.hexdigest()[:16]


def _jitter(payload: Dict, rng: random.Random) -> Dict:
    """Scale the run's timings, as a rerun on a busy host would."""
    factor = rng.uniform(0.8, 1.25)
    payload["elapsed_s"] *= factor
    for key in ("python_s", "native_s", "system_s"):
        payload["cpu"][key] *= factor
    payload["memory"]["peak_mb"] *= rng.uniform(0.95, 1.05)
    for line in payload["lines"]:
        line["cpu_python_percent"] *= rng.uniform(0.9, 1.1)
    return payload


def history(seed: int) -> Path:
    """The cached history for ``seed`` (built on first use): a directory
    holding ``partition/`` (a store with ``sketches.json``) and
    ``meta.json`` (size, ids, workloads, keys)."""
    cache = WORK / "history" / _cache_key() / f"seed-{seed}"
    if (cache / "meta.json").exists():
        return cache
    from repro.core.profile_data import ProfileData
    from repro.serve.jobs import execute_job
    from repro.serve.store import ProfileStore, config_hash
    from repro.serve.streaming import StreamingAggregator
    from repro.workloads import pyperf_suite

    building = cache.with_name(f"{cache.name}.building-{os.getpid()}")
    if building.exists():
        shutil.rmtree(building)
    bases = [
        (name, mode, execute_job({"workload": name, "mode": mode, "scale": BASE_SCALE}))
        for name in pyperf_suite() for mode in BASE_MODES
    ]
    rng = random.Random(seed)
    trees = [hashlib.sha1(f"tree-{seed}-{i}".encode()).hexdigest() for i in range(TREES)]
    store = ProfileStore(building / "partition")
    store.defer_index_flush = True  # one index write for the bulk load
    profiles = {}
    for index in range(PROFILES):
        name, mode, text = rng.choice(bases)
        profile = ProfileData.from_dict(_jitter(json.loads(text), rng))
        scale = rng.choice(SCALES)
        profile_id = store.put(
            profile, workload=name,
            config=config_hash({"mode": mode, "scale": scale, "overrides": {}}),
            tree_hash=rng.choice(trees), created_at=EPOCH + 60.0 * index,
        )
        profiles[profile_id] = profile
    store.flush_index()
    aggregator = StreamingAggregator()
    entries = store.entries()
    for entry in entries:
        aggregator.ingest(entry, profiles[entry["id"]])
    # The daemon resumes from this file instead of replaying the store.
    (building / "partition" / "sketches.json").write_text(
        json.dumps(aggregator.to_dict()) + "\n", encoding="utf-8"
    )
    meta = {
        "profiles": len(entries),
        "ids": [e["id"] for e in entries],
        "workloads": sorted({e["workload"] for e in entries}),
        "keys": len(aggregator.keys()),
    }
    (building / "meta.json").write_text(json.dumps(meta) + "\n", encoding="utf-8")
    if cache.exists():
        shutil.rmtree(cache)
    cache.parent.mkdir(parents=True, exist_ok=True)
    os.replace(building, cache)
    return cache
