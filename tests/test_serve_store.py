"""Tests for the content-addressed profile store and aggregation engine."""

import json

import pytest

from repro import SimProcess
from repro.core import Scalene
from repro.errors import StoreError
from repro.serve import (
    ProfileStore,
    config_hash,
    diff_stored,
    find_regressions,
    merge_stored,
    trend,
)

SOURCE_A = (
    "total = 0\n"
    "for i in range(3000):\n"
    "    total = total + i\n"
    "print(total)\n"
)
SOURCE_B = (
    "bufs = []\n"
    "for j in range(12):\n"
    "    bufs.append(py_buffer(1048576))\n"
    "native_work(0.5)\n"
)


def run_profile(source, filename="store_test.py"):
    return Scalene.run(SimProcess(source, filename=filename), mode="full")


@pytest.fixture()
def store(tmp_path):
    return ProfileStore(tmp_path / "store")


def test_put_get_round_trip(store):
    profile = run_profile(SOURCE_A)
    profile_id = store.put(profile, workload="wl-a", profiler="scalene")
    restored = store.get(profile_id)
    assert restored.to_dict() == profile.to_dict()


def test_content_addressing_dedupes_identical_profiles(store):
    profile = run_profile(SOURCE_A)
    first = store.put(profile, workload="wl-a")
    second = store.put(profile, workload="wl-a")
    assert first == second
    assert len(store) == 1


def test_distinct_profiles_get_distinct_ids(store):
    id_a = store.put(run_profile(SOURCE_A), workload="wl-a")
    id_b = store.put(run_profile(SOURCE_B), workload="wl-b")
    assert id_a != id_b
    assert len(store) == 2


def test_prefix_resolution(store):
    id_a = store.put(run_profile(SOURCE_A), workload="wl-a")
    assert store.resolve(id_a[:12]) == id_a
    assert id_a[:12] in store
    with pytest.raises(StoreError, match="unknown profile id"):
        store.get("0" * 64 if id_a[0] != "0" else "f" * 64)


def test_index_filtering(store):
    id_a = store.put(run_profile(SOURCE_A), workload="wl-a", tree_hash="t1")
    id_b = store.put(run_profile(SOURCE_B), workload="wl-b", tree_hash="t2")
    assert [e["id"] for e in store.find(workload="wl-a")] == [id_a]
    assert [e["id"] for e in store.find(tree_hash="t2")] == [id_b]
    assert store.find(workload="wl-a", tree_hash="t2") == []
    assert {e["id"] for e in store.find()} == {id_a, id_b}


def test_corrupt_object_detected(store):
    profile_id = store.put(run_profile(SOURCE_A), workload="wl-a")
    path = store._object_path(profile_id)
    blob = json.loads(path.read_text())
    blob["profile"]["cpu"]["samples"] += 1  # tamper
    path.write_text(json.dumps(blob))
    with pytest.raises(StoreError, match="corrupt"):
        store.get(profile_id)


def test_merge_stored_records_parents(store):
    id_a = store.put(run_profile(SOURCE_A), workload="wl", tree_hash="t")
    id_b = store.put(run_profile(SOURCE_B), workload="wl", tree_hash="t")
    merged_id, merged = merge_stored(store, [id_a, id_b])
    entry = store.entry(merged_id)
    assert sorted(entry["parents"]) == sorted([id_a, id_b])
    assert entry["workload"] == "wl"
    assert entry["tree_hash"] == "t"
    a, b = store.get(id_a), store.get(id_b)
    assert merged.cpu_samples == a.cpu_samples + b.cpu_samples
    assert merged.peak_footprint_mb == max(a.peak_footprint_mb, b.peak_footprint_mb)
    with pytest.raises(StoreError, match="at least two"):
        merge_stored(store, [id_a])


def test_diff_stored(store):
    id_a = store.put(run_profile(SOURCE_A), workload="wl")
    id_b = store.put(run_profile(SOURCE_B), workload="wl")
    diff = diff_stored(store, id_a, id_b)
    payload = diff.to_dict()
    assert payload["elapsed_before_s"] == store.get(id_a).elapsed
    assert payload["lines"]  # disjoint programs still produce deltas


def test_trend_orders_by_time_and_skips_merged(store):
    id_a = store.put(run_profile(SOURCE_A), workload="wl", created_at=100.0)
    id_b = store.put(run_profile(SOURCE_B), workload="wl", created_at=200.0)
    merge_stored(store, [id_a, id_b])
    points = trend(store, workload="wl")
    assert [p["id"] for p in points] == [id_a, id_b]
    all_points = trend(store, workload="wl", include_merged=True)
    assert len(all_points) == 3


def test_find_regressions_flags_consecutive_jumps():
    points = [
        {"id": "a", "workload": "wl", "elapsed_s": 1.0, "peak_mb": 10.0},
        {"id": "b", "workload": "wl", "elapsed_s": 1.05, "peak_mb": 10.0},
        {"id": "c", "workload": "wl", "elapsed_s": 2.5, "peak_mb": 30.0},
    ]
    flags = find_regressions(points)
    assert len(flags) == 1
    assert flags[0]["before"] == "b" and flags[0]["after"] == "c"
    assert len(flags[0]["reasons"]) == 2


def test_config_hash_stability_and_sensitivity():
    from repro.core.config import ScaleneConfig

    assert config_hash(None) == ""
    assert config_hash({"a": 1}) == config_hash({"a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    assert config_hash(ScaleneConfig()) == config_hash(ScaleneConfig())
    assert config_hash(ScaleneConfig()) != config_hash(ScaleneConfig(mode="cpu"))


def test_store_reopens_from_disk(tmp_path):
    first = ProfileStore(tmp_path / "store")
    profile = run_profile(SOURCE_A)
    profile_id = first.put(profile, workload="wl-a")
    reopened = ProfileStore(tmp_path / "store")
    assert reopened.get(profile_id).to_dict() == profile.to_dict()
    assert reopened.entry(profile_id)["workload"] == "wl-a"


# -- crash safety and recovery (DESIGN.md §8) -------------------------------


def test_missing_index_rebuilds_from_blob_scan(tmp_path):
    store = ProfileStore(tmp_path / "store")
    id_a = store.put(run_profile(SOURCE_A), workload="wl-a")
    id_b = store.put(run_profile(SOURCE_B), workload="wl-b")
    store.index_path.unlink()
    reopened = ProfileStore(tmp_path / "store")
    assert reopened.last_recovery["index_rebuilt"] == 1
    assert reopened.last_recovery["objects_quarantined"] == 0
    assert {e["id"] for e in reopened.entries()} == {id_a, id_b}
    # The sidecars carried the full query key through the rebuild.
    assert reopened.entry(id_a)["workload"] == "wl-a"
    assert reopened.entry(id_b)["workload"] == "wl-b"


def test_corrupt_index_heals_in_place(store):
    profile_id = store.put(run_profile(SOURCE_A), workload="wl-a")
    store.index_path.write_text("{ not json", encoding="utf-8")
    # Reads answer from the in-memory index; reopening rebuilds the torn
    # checkpoint from the blobs.
    assert [e["id"] for e in store.entries()] == [profile_id]
    reopened = ProfileStore(store.root)
    assert reopened.last_recovery["index_rebuilt"] == 1
    assert [e["id"] for e in reopened.entries()] == [profile_id]
    assert json.loads(store.index_path.read_text())["entries"]


def test_interrupted_write_temp_files_swept_on_open(tmp_path):
    store = ProfileStore(tmp_path / "store")
    store.put(run_profile(SOURCE_A), workload="wl-a")
    leftover = store.objects_dir / "de" / "deadbeef.json.tmp.12345"
    leftover.parent.mkdir(parents=True, exist_ok=True)
    leftover.write_text("partial", encoding="utf-8")
    reopened = ProfileStore(tmp_path / "store")
    assert reopened.last_recovery["tmp_swept"] == 1
    assert not leftover.exists()


def test_corrupt_blob_quarantined_during_rebuild(tmp_path):
    store = ProfileStore(tmp_path / "store")
    id_a = store.put(run_profile(SOURCE_A), workload="wl-a")
    id_b = store.put(run_profile(SOURCE_B), workload="wl-b")
    path = store._object_path(id_a)
    path.write_text(path.read_text()[: 100], encoding="utf-8")  # torn blob
    store.index_path.unlink()
    reopened = ProfileStore(tmp_path / "store")
    assert reopened.last_recovery["index_rebuilt"] == 1
    assert reopened.last_recovery["objects_quarantined"] == 1
    assert [e["id"] for e in reopened.entries()] == [id_b]
    # Evidence preserved, not deleted.
    assert list(reopened.quarantine_dir.iterdir())
    assert not path.exists()


def test_rebuild_without_sidecar_keeps_blob_listed(tmp_path):
    store = ProfileStore(tmp_path / "store")
    profile = run_profile(SOURCE_A)
    profile_id = store.put(profile, workload="wl-a")
    store._meta_path(profile_id).unlink()
    store.index_path.unlink()
    reopened = ProfileStore(tmp_path / "store")
    entry = reopened.entry(profile_id)
    assert entry["workload"] == ""  # the key lived only in the sidecar
    assert entry["elapsed_s"] == pytest.approx(profile.elapsed)
    assert entry["cpu_samples"] == profile.cpu_samples
    assert reopened.get(profile_id).to_dict() == profile.to_dict()


def test_torn_write_fault_heals_on_retry(tmp_path):
    from repro.faults import FaultInjector

    store = ProfileStore(tmp_path / "store")
    store.faults = FaultInjector(torn_writes=1)
    profile = run_profile(SOURCE_A)
    with pytest.raises(StoreError, match="torn write"):
        store.put(profile, workload="wl-a")
    # The tear left truncated bytes in the destination; the retry
    # detects the corrupt object and rewrites it.
    profile_id = store.put(profile, workload="wl-a")
    assert store.get(profile_id).to_dict() == profile.to_dict()
    assert store.entry(profile_id)["workload"] == "wl-a"
    assert store.faults.counters["torn_writes"] == 1


# -- the index is in memory; index.json is its checkpoint ------------------


def test_put_leaves_the_index_checkpoint_to_flush_index(tmp_path):
    store = ProfileStore(tmp_path / "store")
    checkpoint = store.index_path.read_bytes()
    id_a = store.put(run_profile(SOURCE_A), workload="wl-a", created_at=1.0)
    id_b = store.put(run_profile(SOURCE_B), workload="wl-b", created_at=2.0)
    assert store.index_path.read_bytes() == checkpoint
    # Without a flush, reopening replays both puts from their sidecars.
    reopened = ProfileStore(tmp_path / "store")
    assert reopened.last_recovery["index_rebuilt"] == 0
    assert reopened.last_recovery["objects_replayed"] == 2
    assert [e["id"] for e in reopened.entries()] == [id_a, id_b]
    assert reopened.entry(id_b)["workload"] == "wl-b"
    store.flush_index()
    listed = json.loads(store.index_path.read_text())["entries"]
    assert [e["id"] for e in listed] == [id_a, id_b]


def test_blob_missing_from_a_readable_index_is_listed_on_reopen(tmp_path):
    store = ProfileStore(tmp_path / "store")
    id_a = store.put(run_profile(SOURCE_A), workload="wl-a", created_at=1.0)
    store.flush_index()
    checkpoint = store.index_path.read_bytes()
    id_b = store.put(run_profile(SOURCE_B), workload="wl-b", created_at=2.0)
    store.flush_index()
    # The write that listed id_b is lost; its blob and sidecar are not.
    store.index_path.write_bytes(checkpoint)
    reopened = ProfileStore(tmp_path / "store")
    assert reopened.last_recovery["index_rebuilt"] == 0
    assert id_b in reopened
    assert len(reopened) == 2
    assert [e["id"] for e in reopened.entries()] == [id_a, id_b]
    assert reopened.entry(id_b)["workload"] == "wl-b"
    # The reopen wrote a checkpoint that lists it.
    listed = json.loads(reopened.index_path.read_text())["entries"]
    assert [e["id"] for e in listed] == [id_a, id_b]


def test_concurrent_puts_and_flushes_keep_every_entry(tmp_path):
    import sys
    import threading

    store = ProfileStore(tmp_path / "store")
    base = run_profile(SOURCE_A)
    variants = []
    for index in range(48):
        variant = base.from_dict(base.to_dict())
        variant.elapsed *= 1.0 + index * 1e-3  # distinct content ids
        variants.append(variant)
    ids, errors, done = [], [], threading.Event()

    def put_all(chunk):
        try:
            ids.extend(store.put(v, workload="wl", created_at=1.0) for v in chunk)
        except Exception as exc:  # noqa: BLE001 — surface in the main thread
            errors.append(exc)

    def flush_until_done():
        try:
            while not done.is_set():
                store.flush_index()
        except Exception as exc:  # noqa: BLE001 — surface in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        flushers = [threading.Thread(target=flush_until_done) for _ in range(3)]
        putters = [
            threading.Thread(target=put_all, args=(variants[i::4],)) for i in range(4)
        ]
        for thread in flushers + putters:
            thread.start()
        for thread in putters:
            thread.join(timeout=120)
        done.set()
        for thread in flushers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in flushers + putters)
    assert errors == []
    assert len(set(ids)) == 48
    store.flush_index()
    listed = json.loads(store.index_path.read_text())["entries"]
    assert {e["id"] for e in listed} == set(ids)
    assert {e["id"] for e in store.entries()} == set(ids)
    reopened = ProfileStore(tmp_path / "store")
    assert reopened.last_recovery["objects_replayed"] == 0
    assert len(reopened) == 48
