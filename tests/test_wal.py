"""Unit tests for the durable control plane (DESIGN.md §13).

Covers the mechanics underneath the gateway-kill chaos proof, one layer
at a time:

* :class:`WriteAheadLog` — checksummed line framing, torn-tail-tolerant
  replay, writer self-repair after a (real or injected) torn write, and
  checkpoint + truncate compaction;
* gateway recovery — ``_recover`` rebuilds the ledger from checkpoint +
  log, requeues every non-terminal job, never recycles gw ids, and
  restores client idempotency keys;
* ledger hygiene — terminal records age out of memory (retention window
  and hard cap) and eviction folds into a WAL checkpoint;
* submit-key dedupe at both tiers (gateway ledger and single daemon);
* ring epochs — begin/finalize/abort, old-or-new read owners, dual-ring
  replication targets, and decommission bookkeeping.

The end-to-end kill -9 / reshard-under-load proofs live in
``tests/test_chaos.py``; these tests pin down the pieces they compose.
"""

import json
import threading
import time

import pytest

from repro.errors import ServeError, StoreError
from repro.faults import FaultInjector, FaultSpec
from repro.serve.daemon import ProfileDaemon
from repro.serve.frontend import ServeFrontend
from repro.serve.router import ShardRouter, shard_key
from repro.serve.wal import WriteAheadLog


# -- the log itself ---------------------------------------------------------


def test_append_replay_roundtrip_preserves_order(tmp_path):
    wal = WriteAheadLog(tmp_path)
    records = [{"op": "accept", "n": i} for i in range(20)]
    for record in records:
        wal.append(record)
    wal.close()
    assert WriteAheadLog(tmp_path).replay() == records


def test_replay_never_mutates_the_log(tmp_path):
    wal = WriteAheadLog(tmp_path)
    for i in range(5):
        wal.append({"n": i})
    first = wal.replay()
    assert wal.replay() == first == [{"n": i} for i in range(5)]


def test_truncated_tail_drops_only_the_torn_record(tmp_path):
    wal = WriteAheadLog(tmp_path)
    for i in range(4):
        wal.append({"n": i})
    wal.close()
    # Chop the last record mid-frame: a crash between write() syscalls.
    blob = (tmp_path / "wal.log").read_bytes()
    lines = blob.splitlines(keepends=True)
    (tmp_path / "wal.log").write_bytes(b"".join(lines[:3]) + lines[3][:7])
    reopened = WriteAheadLog(tmp_path)
    assert reopened.replay() == [{"n": i} for i in range(3)]
    assert reopened.stats["torn_records"] == 1


def test_mid_log_corruption_stops_replay_there(tmp_path):
    wal = WriteAheadLog(tmp_path)
    for i in range(6):
        wal.append({"n": i})
    wal.close()
    lines = (tmp_path / "wal.log").read_bytes().splitlines(keepends=True)
    lines[2] = b"deadbeef " + lines[2].split(b" ", 1)[1]  # bad checksum
    (tmp_path / "wal.log").write_bytes(b"".join(lines))
    reopened = WriteAheadLog(tmp_path)
    # Line framing cannot resync past a bad record; the good suffix is
    # deliberately not trusted (it may be glued to torn bytes).
    assert reopened.replay() == [{"n": 0}, {"n": 1}]
    assert reopened.stats["torn_records"] == 4


def test_injected_torn_write_raises_then_self_repairs(tmp_path):
    faults = FaultInjector(FaultSpec(seed=3, torn_writes=1))
    wal = WriteAheadLog(tmp_path, faults=faults)
    with pytest.raises(StoreError, match="torn write"):
        wal.append({"n": 0})  # the injector tears the first write
    assert wal.stats["append_failures"] == 1
    wal.append({"n": 1})  # repairs the tail (truncate) before writing
    wal.append({"n": 2})
    assert wal.replay() == [{"n": 1}, {"n": 2}]
    assert wal.stats["torn_records"] == 0  # the tear never hit the disk tail


def test_checkpoint_truncates_and_replay_restarts_empty(tmp_path):
    wal = WriteAheadLog(tmp_path)
    for i in range(8):
        wal.append({"n": i})
    wal.checkpoint({"format": 1, "next_gw": 9, "ledger": {}})
    assert wal.size_bytes() == 0
    assert wal.records_since_checkpoint == 0
    assert wal.replay() == []
    wal.append({"n": 99})
    assert wal.replay() == [{"n": 99}]
    assert wal.load_checkpoint() == {"format": 1, "next_gw": 9, "ledger": {}}
    assert wal.stats["compactions"] == 1


def test_corrupt_checkpoint_is_ignored_not_trusted(tmp_path):
    wal = WriteAheadLog(tmp_path)
    (tmp_path / "checkpoint.json").write_text("{not json", encoding="utf-8")
    assert wal.load_checkpoint() is None


def test_closed_wal_refuses_appends(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.close()
    with pytest.raises(StoreError, match="closed"):
        wal.append({"n": 0})


def test_abandon_keeps_page_cache_appends(tmp_path):
    # abandon() models kill -9: no fsync, but the unbuffered write
    # already reached the OS, so a reopened log replays it.
    wal = WriteAheadLog(tmp_path, sync_every=10_000, sync_interval_s=3600.0)
    wal.append({"n": 0})
    wal.abandon()
    assert WriteAheadLog(tmp_path).replay() == [{"n": 0}]


# -- gateway recovery -------------------------------------------------------


def _router(n=2):
    return ShardRouter(
        {f"s{i}": f"http://127.0.0.1:{40000 + i}" for i in range(n)}
    )


@pytest.fixture
def frontend_factory(tmp_path):
    """Build (and reliably dispose) unstarted gateways over one WAL dir."""
    built = []

    def make(**kwargs):
        kwargs.setdefault("wal", tmp_path / "wal")
        frontend = ServeFrontend(_router(), **kwargs)
        built.append(frontend)
        return frontend

    yield make
    for frontend in built:
        frontend.stop()


def _accept_op(gw_id, *, status="accepted", submit_key=None):
    return {
        "op": "accept",
        "record": {
            "id": gw_id,
            "status": status,
            "workload": "pprint",
            "config_hash": "",
            "shard": None,
            "shard_job_id": None,
            "profile_id": None,
            "error": None,
            "accepted_at": time.time(),
            "terminal_at": None,
            "submit_key": submit_key,
            "payload": {"workload": "pprint", "mode": "cpu"},
        },
    }


def test_recovery_requeues_every_non_terminal_job(frontend_factory, tmp_path):
    wal = WriteAheadLog(tmp_path / "wal")
    wal.append(_accept_op("gw-00000001", submit_key="k1"))
    wal.append(_accept_op("gw-00000002"))
    wal.append({"op": "dispatch", "id": "gw-00000002", "shard": "s0",
                "shard_job_id": "job-1"})
    wal.append(_accept_op("gw-00000003"))
    wal.append({"op": "dispatch", "id": "gw-00000003", "shard": "s1",
                "shard_job_id": "job-2"})
    wal.append({"op": "terminal", "id": "gw-00000003", "status": "done",
                "profile_id": "p3", "error": None, "at": time.time()})
    wal.close()

    frontend = frontend_factory()
    frontend._recover()
    assert sorted(frontend.ledger) == ["gw-00000001", "gw-00000002", "gw-00000003"]
    # Non-terminal records requeue to accepted — even "dispatched" ones:
    # a restarted shard may have reused the shard_job_id, so the old
    # dispatch state cannot be trusted.
    assert frontend.ledger["gw-00000001"]["status"] == "accepted"
    assert frontend.ledger["gw-00000002"]["status"] == "accepted"
    assert frontend.ledger["gw-00000002"]["shard"] is None
    assert frontend.ledger["gw-00000003"]["status"] == "done"
    assert frontend.ledger["gw-00000003"]["profile_id"] == "p3"
    assert sorted(frontend._pending) == ["gw-00000001", "gw-00000002"]
    assert frontend._submit_keys == {"k1": "gw-00000001"}
    assert frontend.stats["recovered"] == 3
    assert frontend.stats["recovered_requeued"] == 1  # only the dispatched one
    assert frontend._gw_next == 4  # ids never recycle


def test_recovery_converges_when_log_overlaps_checkpoint(
    frontend_factory, tmp_path
):
    # A crash between checkpoint-write and log-truncate leaves records
    # in both; applying the overlap twice must converge (idempotent).
    wal = WriteAheadLog(tmp_path / "wal")
    accept = _accept_op("gw-00000001")
    wal.append(accept)
    wal.checkpoint(
        {"format": 1, "next_gw": 2, "ledger": {"gw-00000001": accept["record"]}}
    )
    wal.append(accept)  # the overlap: same accept already in the snapshot
    wal.append({"op": "terminal", "id": "gw-00000001", "status": "done",
                "profile_id": "p1", "error": None, "at": time.time()})
    wal.close()

    frontend = frontend_factory()
    frontend._recover()
    assert list(frontend.ledger) == ["gw-00000001"]
    assert frontend.ledger["gw-00000001"]["status"] == "done"
    assert frontend._pending == []
    assert frontend._gw_next == 2


def test_recovery_restores_gw_sequence_after_full_compaction(
    frontend_factory, tmp_path
):
    # After a quiet stretch every terminal record is evicted and
    # compacted away: the checkpoint is {ledger: {}, next_gw: N} and the
    # log is empty. The sequence floor must still be honored — gw ids
    # never recycle across restarts.
    wal = WriteAheadLog(tmp_path / "wal")
    wal.checkpoint({"format": 1, "next_gw": 42, "ledger": {}})
    wal.close()

    frontend = frontend_factory()
    frontend._recover()
    assert frontend.ledger == {}
    assert frontend._gw_next == 42


def test_concurrent_accepts_survive_checkpoints(frontend_factory, tmp_path):
    # Accept appends the WAL record and inserts into the ledger in one
    # critical section, and checkpoint snapshots + truncates under the
    # same lock — so a compaction racing a burst of accepts can never
    # truncate an accept the snapshot missed. Model the crash with
    # abandon() (no fsync) and assert recovery sees every 202'd job.
    frontend = frontend_factory(wal_compact_every=1)
    body = json.dumps(
        {"workload": "pprint", "mode": "cpu", "scale": 0.05}
    ).encode("utf-8")
    accepted = []
    accepted_lock = threading.Lock()

    def accept_burst():
        for _ in range(40):
            record = frontend._accept_job(body)
            with accepted_lock:
                accepted.append(record["id"])

    def checkpoint_storm(stop):
        while not stop.is_set():
            frontend._maintain_ledger()  # compact_every=1: checkpoints

    stop = threading.Event()
    acceptors = [threading.Thread(target=accept_burst) for _ in range(3)]
    compactor = threading.Thread(target=checkpoint_storm, args=(stop,))
    compactor.start()
    for thread in acceptors:
        thread.start()
    for thread in acceptors:
        thread.join()
    stop.set()
    compactor.join()
    frontend.wal.abandon()

    recovered = frontend_factory()
    recovered._recover()
    assert len(accepted) == len(set(accepted)) == 120  # no gw id minted twice
    missing = set(accepted) - set(recovered.ledger)
    assert not missing  # every 202 is durable, checkpoints notwithstanding
    assert recovered._gw_next > max(int(gw.split("-")[1]) for gw in accepted)


def test_terminal_eviction_respects_retention_and_compacts(frontend_factory):
    frontend = frontend_factory(terminal_retention_s=0.0)
    old = _accept_op("gw-00000001")["record"]
    old.update(status="done", terminal_at=time.time() - 10.0,
               payload=None, submit_key="k1")
    live = _accept_op("gw-00000002")["record"]
    frontend.ledger = {"gw-00000001": old, "gw-00000002": live}
    frontend._submit_keys = {"k1": "gw-00000001"}
    frontend._maintain_ledger()
    assert list(frontend.ledger) == ["gw-00000002"]  # accepted never evicted
    assert frontend._submit_keys == {}
    assert frontend.stats["evicted_terminal"] == 1
    assert frontend.wal.stats["compactions"] >= 1  # eviction checkpoints


def test_terminal_cap_evicts_oldest_first(frontend_factory):
    frontend = frontend_factory(
        terminal_retention_s=3600.0, terminal_retention_max=2
    )
    for i in range(1, 5):
        record = _accept_op(f"gw-0000000{i}")["record"]
        record.update(status="done", terminal_at=time.time() - (10 - i),
                      payload=None)
        frontend.ledger[record["id"]] = record
    frontend._maintain_ledger()
    assert sorted(frontend.ledger) == ["gw-00000003", "gw-00000004"]
    assert frontend.stats["evicted_terminal"] == 2


def test_daemon_dedupes_submit_keys(tmp_path):
    daemon = ProfileDaemon(str(tmp_path / "store"), workers=1)
    payload = {"workload": "pprint", "mode": "cpu", "scale": 0.05,
               "submit_key": "dk-1"}
    first = daemon.submit(dict(payload))
    again = daemon.submit(dict(payload))
    other = daemon.submit({**payload, "submit_key": "dk-2"})
    assert again.id == first.id
    assert other.id != first.id
    assert len(daemon.jobs()) == 2  # the retry did not enqueue a double-run


def test_daemon_submit_key_map_is_bounded(tmp_path):
    daemon = ProfileDaemon(
        str(tmp_path / "store"), workers=1, submit_key_retention_max=2
    )
    payload = {"workload": "pprint", "mode": "cpu", "scale": 0.05}
    for i in range(4):
        job = daemon.submit({**payload, "submit_key": f"dk-{i}"})
        job.status = "done"  # terminal: the key is now evictable
    # Oldest terminal keys fall off at the cap; the newest survive.
    assert sorted(daemon._submit_keys) == ["dk-2", "dk-3"]
    # Keys for live (non-terminal) jobs are never evicted — dropping
    # one would let a retried submission double-run an in-flight job.
    live = daemon.submit({**payload, "submit_key": "dk-live"})
    daemon.submit({**payload, "submit_key": "dk-4"}).status = "done"
    daemon.submit({**payload, "submit_key": "dk-5"}).status = "done"
    assert "dk-live" in daemon._submit_keys
    assert daemon.submit({**payload, "submit_key": "dk-live"}).id == live.id


def test_daemon_dangling_submit_key_treated_as_new(tmp_path):
    daemon = ProfileDaemon(str(tmp_path / "store"), workers=1)
    payload = {"workload": "pprint", "mode": "cpu", "scale": 0.05,
               "submit_key": "dk-gone"}
    first = daemon.submit(dict(payload))
    # Prune the job record out from under its key (retention, restart):
    # the stale mapping must not KeyError — the key is simply new again.
    with daemon._lock:
        del daemon._jobs[first.id]
    fresh = daemon.submit(dict(payload))
    assert fresh.id != first.id
    assert daemon._submit_keys["dk-gone"] == fresh.id


# -- ring epochs ------------------------------------------------------------


def test_begin_epoch_validates_urls_and_membership():
    router = _router(2)
    with pytest.raises(ServeError, match="without a registered url"):
        router.begin_epoch(["s0", "s1", "s2"])
    with pytest.raises(ServeError, match="would not change"):
        router.begin_epoch(["s0", "s1"])


def test_epoch_add_finalize_and_read_owner_union():
    router = _router(2)
    router.urls["s2"] = "http://127.0.0.1:40002"
    assert router.epoch == 1 and not router.migrating
    assert router.begin_epoch(["s0", "s1", "s2"]) == 2
    assert router.migrating
    with pytest.raises(ServeError, match="already in progress"):
        router.begin_epoch(["s0", "s1"])
    # Mid-migration reads cover both rings' owners, old ones first.
    for workload in ("pprint", "mdp", "raytrace", "sympy"):
        owners = router.read_owners(workload)
        old = router.prev_ring.owners(shard_key(workload))[:2]
        new = router.ring.owners(shard_key(workload))[:2]
        assert owners[: len(old)] == old
        assert set(old) | set(new) <= set(owners)
    router.finalize_epoch()
    assert not router.migrating and router.epoch == 2
    assert router.ring.shards == ["s0", "s1", "s2"]


def test_abort_epoch_restores_old_ring_and_bumps():
    router = _router(2)
    router.urls["s2"] = "http://127.0.0.1:40002"
    router.begin_epoch(["s0", "s1", "s2"])
    router.abort_epoch()
    assert router.ring.shards == ["s0", "s1"]
    assert not router.migrating
    assert router.epoch == 3  # an abort is a membership change too


def test_replication_targets_span_both_rings_mid_migration():
    router = _router(3)
    router.urls["s3"] = "http://127.0.0.1:40003"
    router.begin_epoch(["s0", "s1", "s2", "s3"])
    for workload in ("pprint", "mdp", "raytrace", "sympy", "leaky"):
        old = router.prev_ring.owners(shard_key(workload))[:2]
        new = router.ring.owners(shard_key(workload))[:2]
        targets = router.replication_targets(workload, source=old[0])
        assert old[0] not in targets
        assert set(targets) == (set(old) | set(new)) - {old[0]}


def test_forget_refuses_live_members_then_forgets():
    router = _router(3)
    with pytest.raises(ServeError, match="still a ring member"):
        router.forget("s2")
    router.begin_epoch(["s0", "s1"])
    with pytest.raises(ServeError, match="still a ring member"):
        router.forget("s2")  # still in prev_ring until finalize
    router.finalize_epoch()
    router.forget("s2")
    assert "s2" not in router.urls
    with pytest.raises(ServeError):
        router.url("s2")
