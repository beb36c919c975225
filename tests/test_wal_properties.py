"""Property-based tests for the durable control plane (DESIGN.md §13).

Two invariant families back the crash-recovery and live-resharding
proofs, driven by Hypothesis:

* **WAL replay** — for any record sequence and any crash point, replay
  of the (possibly torn) log is an exact *prefix* of what was appended:
  order-preserving, idempotent across repeated replays, and complete
  whenever the log is intact. A crash is modeled the way one actually
  manifests — the file truncated at an arbitrary byte offset — so the
  property covers clean boundaries, mid-frame tears, and mid-checksum
  tears alike.

* **Recovery** — for any run of accepts, dispatches, finishes,
  requeues and checkpoints, a gateway recovered from the WAL holds the
  live gateway's records: the terminal ones unchanged, the others
  requeued.

* **Ring epochs** — for any membership change, every key has exactly
  one primary per epoch; mid-migration, the old-or-new read-owner union
  contains both the outgoing and incoming primary pair (so a read
  served from the list is served from a data-complete or
  being-filled owner); finalize collapses it back to the new ring.
"""

import itertools
import json
import time
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.serve import frontend as frontend_module
from repro.serve.frontend import ServeFrontend
from repro.serve.jobs import TERMINAL
from repro.serve.router import ShardRouter, shard_key
from repro.serve.wal import WriteAheadLog, _frame

#: JSON-safe scalar payload values for generated WAL records.
_scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)

_records = st.lists(
    st.dictionaries(st.text(min_size=1, max_size=6), _scalars, max_size=4),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(records=_records, data=st.data())
def test_replay_of_a_torn_log_is_an_exact_prefix(tmp_path_factory, records, data):
    root = tmp_path_factory.mktemp("wal-prop")
    wal = WriteAheadLog(root)
    frames = [_frame(r) for r in records]
    offsets = [0]
    for record in records:
        wal.append(record)
        offsets.append(sum(map(len, frames[: len(offsets)])))
    wal.close()
    log = root / "wal.log"
    size = log.stat().st_size
    assert size == sum(map(len, frames))

    # Crash at an arbitrary byte: keep only the first `cut` bytes.
    cut = data.draw(st.integers(min_value=0, max_value=size), label="cut")
    log.write_bytes(log.read_bytes()[:cut])

    reopened = WriteAheadLog(root)
    replayed = reopened.replay()
    # Exactly the records whose full frame survived the cut, in order.
    # Losing only the trailing newline leaves a record parseable — the
    # newline is a terminator, not part of the checksummed body.
    intact = max(i for i in range(len(offsets)) if offsets[i] <= cut)
    if intact < len(records) and offsets[intact + 1] - 1 == cut:
        intact += 1
    assert replayed == records[:intact]
    # Idempotent: replaying again changes nothing (the log included).
    assert reopened.replay() == replayed
    assert log.stat().st_size == cut
    reopened.close()


@settings(max_examples=60, deadline=None)
@given(records=_records, junk=st.binary(min_size=1, max_size=40))
def test_replay_survives_arbitrary_junk_tails(tmp_path_factory, records, junk):
    root = tmp_path_factory.mktemp("wal-junk")
    wal = WriteAheadLog(root)
    for record in records:
        wal.append(record)
    wal.close()
    log = root / "wal.log"
    with open(log, "ab") as fh:
        fh.write(junk)
    replayed = WriteAheadLog(root).replay()
    # Junk can only cost records from its own (glued) line onward —
    # never reorder, duplicate, or invent records.
    if junk.startswith(b"\n"):
        assert replayed[: len(records)] == records or replayed == records
    assert replayed == records[: len(replayed)]


#: Gateway steps: an action and a number that picks its record, key,
#: shard or scale.
_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["accept", "keyed", "dispatch", "done", "error", "requeue", "checkpoint"]
        ),
        st.integers(min_value=0, max_value=11),
    ),
    min_size=1,
    max_size=40,
)


def _drive(gateway, steps):
    """Run ``steps`` on an unstarted gateway through its live paths."""
    shard_job_ids = itertools.count(1)
    for action, n in steps:
        in_flight = [
            (shard, job_id)
            for shard, jobs in sorted(gateway._in_flight.items())
            for job_id in jobs
        ]
        if action in ("accept", "keyed"):
            payload = {"workload": "pprint", "mode": "cpu", "scale": 0.05 * (1 + n % 3)}
            if action == "keyed":
                payload["submit_key"] = f"k{n % 4}"
            gateway._accept_job(json.dumps(payload).encode("utf-8"))
        elif action == "dispatch" and gateway._pending:
            # What _flush_pending does once the shard answers.
            gw_id = gateway._pending.pop(n % len(gateway._pending))
            gateway._record_dispatch(f"s{n % 2}", gw_id, f"job-{next(shard_job_ids)}")
        elif action in ("done", "error") and in_flight:
            shard, job_id = in_flight[n % len(in_flight)]
            job = {"id": job_id, "status": action, "profile_id": None, "error": None}
            job["profile_id" if action == "done" else "error"] = f"{action}-{job_id}"
            gateway._apply_changes(
                shard, {"full": False, "jobs": [job]}, time.monotonic()
            )
        elif action == "requeue":
            # A restarted shard's full answer lists none of its jobs.
            gateway._apply_changes(
                f"s{n % 2}", {"full": True, "jobs": []}, time.monotonic()
            )
        elif action == "checkpoint":
            gateway._maintain_ledger()


@settings(max_examples=40, deadline=None)
@given(steps=_steps)
def test_a_recovered_ledger_is_the_live_one(tmp_path_factory, steps):
    root = tmp_path_factory.mktemp("ledger-prop")
    router = ShardRouter(_urls(2))
    live = ServeFrontend(router, wal=root)
    try:
        with mock.patch.object(frontend_module, "_WAL_COMPACT_EVERY", 0):
            _drive(live, steps)
    finally:
        live.kill()
    recovered = ServeFrontend(router, wal=root)
    try:
        recovered._recover()
        records = {gw_id: record.to_dict() for gw_id, record in live.ledger.items()}
        assert sorted(recovered.ledger) == sorted(records)
        unfinished = []
        for gw_id, record in records.items():
            if record["status"] not in TERMINAL:
                unfinished.append(gw_id)
                record.update(status="accepted", shard=None, shard_job_id=None)
            assert recovered.ledger[gw_id].to_dict() == record
        assert recovered._pending == sorted(unfinished)
        for key in {record["submit_key"] for record in records.values()} - {None}:
            assert recovered.ledger.find(key).id == live.ledger.find(key).id
        dispatched = [r for r in live.ledger.values() if r.status == "dispatched"]
        assert recovered.stats["recovered_requeued"] == len(dispatched)
    finally:
        recovered.stop()


def _urls(n):
    return {f"s{i}": f"http://127.0.0.1:{41000 + i}" for i in range(n)}


_keys = st.lists(
    st.tuples(st.sampled_from(["pprint", "mdp", "raytrace", "sympy", "leaky"]),
              st.text(alphabet="0123456789abcdef", max_size=6)),
    min_size=1,
    max_size=10,
    unique=True,
)


@settings(max_examples=60, deadline=None)
@given(
    before=st.integers(min_value=1, max_value=5),
    grow=st.booleans(),
    keys=_keys,
)
def test_every_key_has_exactly_one_primary_per_epoch(before, grow, keys):
    if not grow and before == 1:
        before = 2  # removals need a survivor
    router = ShardRouter(_urls(before))
    old_primary = {
        key: router.primary(*key) for key in keys
    }
    if grow:
        members = [f"s{i}" for i in range(before + 1)]
        router.urls[f"s{before}"] = f"http://127.0.0.1:{41000 + before}"
    else:
        members = [f"s{i}" for i in range(before - 1)]
    epoch = router.begin_epoch(members)
    assert epoch == 2 and router.migrating

    for key in keys:
        # One primary per epoch: the outgoing ring and the incoming ring
        # each name exactly one first owner for the key.
        assert router.prev_ring.primary(shard_key(*key)) == old_primary[key]
        new_primary = router.ring.primary(shard_key(*key))
        assert new_primary in members

        # Mid-migration reads: the union covers both primary pairs, old
        # owners first (only they are guaranteed data-complete).
        owners = router.read_owners(*key)
        assert len(owners) == len(set(owners))  # no duplicates
        old_pair = router.prev_ring.owners(shard_key(*key))[:2]
        new_pair = router.ring.owners(shard_key(*key))[:2]
        assert owners[: len(old_pair)] == old_pair
        assert set(old_pair) | set(new_pair) <= set(owners)

    router.finalize_epoch()
    assert not router.migrating
    for key in keys:
        assert router.read_owners(*key) == router.ring.owners(shard_key(*key))


@settings(max_examples=40, deadline=None)
@given(before=st.integers(min_value=2, max_value=5), keys=_keys)
def test_abort_restores_old_placement_exactly(before, keys):
    router = ShardRouter(_urls(before))
    placement = {key: router.read_owners(*key) for key in keys}
    router.urls[f"s{before}"] = f"http://127.0.0.1:{41000 + before}"
    router.begin_epoch([f"s{i}" for i in range(before + 1)])
    router.abort_epoch()
    assert not router.migrating
    assert {key: router.read_owners(*key) for key in keys} == placement
