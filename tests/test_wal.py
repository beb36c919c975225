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
  and hard cap, at the head of the job table's finish log) and eviction
  folds into a WAL checkpoint;
* submit-key dedupe at both tiers (gateway ledger and single daemon),
  and a key leaving with its evicted record;
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
from repro.serve import frontend as frontend_module
from repro.serve import jobs as jobs_module
from repro.serve import wal as wal_module
from repro.serve.client import ServeClient
from repro.serve.daemon import ProfileDaemon
from repro.serve.frontend import ServeFrontend
from repro.serve.jobs import Job
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


def test_abandon_keeps_page_cache_appends(tmp_path, monkeypatch):
    # abandon() models kill -9: no fsync, but the unbuffered write
    # already reached the OS, so a reopened log replays it.
    monkeypatch.setattr(wal_module, "SYNC_EVERY", 10_000)
    monkeypatch.setattr(wal_module, "SYNC_INTERVAL_S", 3600.0)
    wal = WriteAheadLog(tmp_path)
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
    assert frontend.ledger["gw-00000001"].status == "accepted"
    assert frontend.ledger["gw-00000002"].status == "accepted"
    assert frontend.ledger["gw-00000002"].shard is None
    assert frontend.ledger["gw-00000003"].status == "done"
    assert frontend.ledger["gw-00000003"].profile_id == "p3"
    assert sorted(frontend._pending) == ["gw-00000001", "gw-00000002"]
    assert frontend.ledger.find("k1").id == "gw-00000001"
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
    assert frontend.ledger["gw-00000001"].status == "done"
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


def test_concurrent_accepts_survive_checkpoints(
    frontend_factory, tmp_path, monkeypatch
):
    # Accept appends the WAL record and inserts into the ledger in one
    # critical section, and checkpoint snapshots + truncates under the
    # same lock — so a compaction racing a burst of accepts can never
    # truncate an accept the snapshot missed. Model the crash with
    # abandon() (no fsync) and assert recovery sees every 202'd job.
    monkeypatch.setattr(frontend_module, "_WAL_COMPACT_EVERY", 1)
    frontend = frontend_factory()
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


def _accept(frontend, submit_key=None):
    """Accept a pprint job on an unstarted gateway; returns its gw id."""
    payload = {"workload": "pprint", "mode": "cpu", "scale": 0.05}
    if submit_key is not None:
        payload["submit_key"] = submit_key
    return frontend._accept_job(json.dumps(payload).encode("utf-8"))["id"]


def _finish(frontend, gw_id, shard="s0"):
    """Dispatch a record to ``shard`` and apply the shard's report that
    the job is done, as the shard's watcher would."""
    shard_job_id = f"job-{gw_id}"
    frontend._record_dispatch(shard, gw_id, shard_job_id)
    done = {"id": shard_job_id, "status": "done", "profile_id": "p", "error": None}
    frontend._apply_changes(
        shard, {"full": False, "jobs": [done]}, time.monotonic()
    )


def test_a_failed_flush_requeues_the_rest_of_its_batch(frontend_factory, monkeypatch):
    def refused(client, path, body=None, **kwargs):
        raise ServeError("connection refused")

    monkeypatch.setattr(ServeClient, "_request", refused)
    frontend = frontend_factory()
    ids = [_accept(frontend) for _ in range(3)]  # one key: one shard's batch
    frontend._flush_pending()
    assert frontend._pending == ids
    assert [frontend.ledger[gw_id].status for gw_id in ids] == ["accepted"] * 3
    assert frontend.stats["dispatch_failures"] == 3


def test_terminal_eviction_respects_retention_and_compacts(
    frontend_factory, monkeypatch
):
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_S", 0.0)
    frontend = frontend_factory()
    old = _accept_op("gw-00000001")["record"]
    old.update(status="done", terminal_at=time.time() - 10.0,
               payload=None, submit_key="k1")
    live = _accept_op("gw-00000002")["record"]
    with frontend._lock:
        frontend.ledger.add(Job.from_dict(old))
        frontend.ledger.add(Job.from_dict(live))
        frontend.ledger.finish("gw-00000001", old["terminal_at"])
    frontend._maintain_ledger()
    assert list(frontend.ledger) == ["gw-00000002"]  # accepted never evicted
    assert frontend.ledger.find("k1") is None
    assert frontend.stats["evicted_terminal"] == 1
    # An eviction alone does not compact; the append count does.
    assert frontend.wal.stats["compactions"] == 0
    monkeypatch.setattr(frontend_module, "_WAL_COMPACT_EVERY", 0)
    frontend._maintain_ledger()
    assert frontend.wal.stats["compactions"] == 1


def test_terminal_cap_evicts_oldest_first(frontend_factory, monkeypatch):
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_MAX", 2)
    frontend = frontend_factory()
    for _ in range(4):
        _finish(frontend, _accept(frontend))
    assert sorted(frontend.ledger) == ["gw-00000003", "gw-00000004"]
    assert frontend.stats["evicted_terminal"] == 2


def test_gateway_evicts_at_the_log_head_by_age_and_by_count(
    frontend_factory, monkeypatch
):
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_MAX", 3)
    frontend = frontend_factory()
    live = _accept(frontend)
    ids = [_accept(frontend) for _ in range(4)]
    # Finish order, oldest first, is not id order: the log's is the one
    # retention goes by.
    finished = [ids[2], ids[0], ids[3], ids[1]]
    wall = time.time
    for gw_id, age in zip(finished, (300.0, 200.0, 100.0, 0.0)):
        monkeypatch.setattr(time, "time", lambda age=age: wall() - age)
        _finish(frontend, gw_id)
    monkeypatch.setattr(time, "time", wall)
    # By count: the fourth finish evicted the oldest one.
    assert sorted(frontend.ledger) == sorted([live] + finished[1:])
    assert frontend.stats["evicted_terminal"] == 1
    # By age, on the poll thread's tick: finished more than 150 s ago.
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_S", 150.0)
    frontend._maintain_ledger()
    assert sorted(frontend.ledger) == sorted([live] + finished[2:])
    assert frontend.stats["evicted_terminal"] == 2
    assert frontend.ledger[live].status == "accepted"


def test_gateway_submit_key_leaves_with_its_evicted_record(
    frontend_factory, monkeypatch
):
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_MAX", 1)
    frontend = frontend_factory()
    first = _accept(frontend, submit_key="k1")
    _finish(frontend, first)
    second = _accept(frontend, submit_key="k2")
    _finish(frontend, second)  # evicts the first record past the cap
    assert list(frontend.ledger) == [second]
    assert frontend.ledger.find("k1") is None
    again = _accept(frontend, submit_key="k1")
    assert again not in (first, second)  # new again, not deduped
    assert _accept(frontend, submit_key="k2") == second
    assert frontend.stats["deduped"] == 1


def test_recovered_gateway_keeps_the_newest_terminal_records(
    frontend_factory, tmp_path, monkeypatch
):
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_MAX", 2)
    wal = WriteAheadLog(tmp_path / "wal")
    now = time.time()
    # More terminal records than the cap, finished out of id order.
    ages = {"gw-00000001": 10.0, "gw-00000002": 50.0, "gw-00000003": 20.0,
            "gw-00000004": 40.0, "gw-00000005": 30.0}
    for gw_id, age in ages.items():
        wal.append(_accept_op(gw_id, submit_key=f"k-{gw_id}"))
        wal.append({"op": "terminal", "id": gw_id, "status": "done",
                    "profile_id": f"p-{gw_id}", "error": None, "at": now - age})
    wal.append(_accept_op("gw-00000006"))
    wal.close()

    frontend = frontend_factory()
    frontend._recover()
    assert sorted(frontend.ledger) == ["gw-00000001", "gw-00000003", "gw-00000006"]
    assert frontend.stats["recovered"] == 6
    assert frontend.stats["evicted_terminal"] == 3
    assert frontend.ledger.find("k-gw-00000002") is None
    assert frontend.ledger.find("k-gw-00000003").id == "gw-00000003"
    assert frontend._pending == ["gw-00000006"]
    assert frontend._gw_next == 7


def test_a_recovered_key_stays_with_its_newest_record(
    frontend_factory, tmp_path, monkeypatch
):
    # The key's first record was evicted live and the key reused. Replay
    # brings both back, and evicting the old one again must not take the
    # key from the new one.
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_MAX", 1)
    wal = WriteAheadLog(tmp_path / "wal")
    now = time.time()
    for gw_id, key, age in (("gw-00000001", "k1", 20.0), ("gw-00000002", None, 10.0)):
        wal.append(_accept_op(gw_id, submit_key=key))
        wal.append({"op": "terminal", "id": gw_id, "status": "done",
                    "profile_id": "p", "error": None, "at": now - age})
    wal.append(_accept_op("gw-00000003", submit_key="k1"))
    wal.close()

    frontend = frontend_factory()
    frontend._recover()
    assert sorted(frontend.ledger) == ["gw-00000002", "gw-00000003"]
    assert frontend.ledger.find("k1").id == "gw-00000003"
    assert _accept(frontend, submit_key="k1") == "gw-00000003"


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


def _finish_on_daemon(daemon, job):
    with daemon._lock:
        daemon._finish_locked(job, "done", profile_id="p")


def test_daemon_submit_key_map_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_MAX", 2)
    daemon = ProfileDaemon(str(tmp_path / "store"), workers=1)
    payload = {"workload": "pprint", "mode": "cpu", "scale": 0.05}
    keys = [f"dk-{i}" for i in range(6)]
    for key in keys[:4]:
        # Terminal: the job, and its key with it, is now evictable.
        _finish_on_daemon(daemon, daemon.submit({**payload, "submit_key": key}))
    # Oldest terminal keys fall off at the cap; the newest survive.
    assert [key for key in keys if daemon._jobs.find(key)] == ["dk-2", "dk-3"]
    # Keys for live (non-terminal) jobs are never evicted — dropping
    # one would let a retried submission double-run an in-flight job.
    live = daemon.submit({**payload, "submit_key": "dk-live"})
    for key in keys[4:]:
        _finish_on_daemon(daemon, daemon.submit({**payload, "submit_key": key}))
    assert daemon._jobs.find("dk-live") is live
    assert daemon.submit({**payload, "submit_key": "dk-live"}).id == live.id


def test_daemon_dangling_submit_key_treated_as_new(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_MAX", 1)
    daemon = ProfileDaemon(str(tmp_path / "store"), workers=1)
    payload = {"workload": "pprint", "mode": "cpu", "scale": 0.05,
               "submit_key": "dk-gone"}
    first = daemon.submit(dict(payload))
    # Retention prunes the job record: its key goes with it, so the key
    # is simply new again.
    _finish_on_daemon(daemon, first)
    _finish_on_daemon(daemon, daemon.submit({"workload": "pprint", "mode": "cpu"}))
    fresh = daemon.submit(dict(payload))
    assert fresh.id != first.id
    assert daemon._jobs.find("dk-gone") is fresh


def test_daemon_submit_key_leaves_with_its_evicted_job(tmp_path, monkeypatch):
    daemon = ProfileDaemon(str(tmp_path / "store"), workers=1)
    payload = {"workload": "pprint", "mode": "cpu", "scale": 0.05}
    old = daemon.submit({**payload, "submit_key": "dk-old"})
    kept = daemon.submit({**payload, "submit_key": "dk-kept"})
    _finish_on_daemon(daemon, old)
    _finish_on_daemon(daemon, kept)
    with daemon._lock:
        daemon._jobs.evict(time.time())  # nothing is past the limits yet
        assert daemon._jobs.find("dk-old") is old
        monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_MAX", 1)
        assert daemon._jobs.evict(time.time()) == 1  # the monitor's tick
    assert [job.id for job in daemon.jobs()] == [kept.id]
    assert daemon._jobs.find("dk-old") is None
    assert daemon._jobs.find("dk-kept") is kept
    again = daemon.submit({**payload, "submit_key": "dk-old"})
    assert again.id not in (old.id, kept.id) and again.status == "queued"


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
