"""The gateway: one HTTP endpoint in front of the shard plane.

:class:`ServeFrontend` serves the shards' API over the whole plane, on
the same :mod:`~repro.serve.httpapi` server the shards use:

* **Dispatch on accept** — ``POST /jobs`` is answered *immediately*
  (202, a gateway id ``gw-…``) with no shard I/O on the submit path.
  Every accept wakes a dispatcher thread, which routes each pending
  job's ``(workload, config_hash)`` key through the consistent-hash
  router and flushes the per-shard groups concurrently. An idle
  dispatcher sends a job at once; jobs accepted while a flush is in
  flight go out together in the next one, so a backlog still batches.
  This is what lets the gateway accept tens of thousands of queued jobs
  while the shards chew through them at worker speed.
* **Pushed completions** — each live shard has a watcher thread,
  started with the gateway, holding a long-poll on the shard's change
  cursor (``GET /jobs?since=<seq>&boot=<id>&wait=<s>``), which the shard
  answers the moment a job finishes, with only the jobs finished since.
  Status traffic per job is therefore independent of the shard's
  history. Only a ``full`` answer (the watcher's first, a restarted
  shard's new boot id, or a cursor behind the shard's trimmed log)
  reconciles against the whole table, and that is where lost jobs are
  found: a job dispatched to the shard before the request went out and
  missing from its table is requeued.
* **Durable acceptance** — every accepted job lives in the gateway
  ledger, a :class:`~repro.serve.jobs.Job` under its gw id, until a
  shard reports it terminal. With a
  :class:`~repro.serve.wal.WriteAheadLog` attached, the ledger survives
  the gateway itself: the accept is appended to the checksummed log
  **before** the client hears 202, each later transition is the logged
  record that :func:`_transition` applies live and on replay alike, and
  a restarted gateway replays checkpoint + log, requeues every
  non-terminal job, and dispatches the backlog — ``kill -9`` mid-burst
  loses nothing. If a shard dies, its watcher's failed request marks it
  down on the router and re-dispatches that shard's non-terminal jobs to
  the key's next live owner: dispatch is at-least-once, but storage stays
  exactly-once because workloads are deterministic and the store is
  content-addressed — a re-run of the same job hashes to the same
  profile id. The ledger is a :class:`~repro.serve.jobs.JobTable`, as on
  the shards: terminal records leave it under their retention rule
  (checkpoint compaction folds them out of the log), so it is bounded,
  and an optional client ``submit_key`` dedupes resubmissions.
* **Fan-out reads** — ``GET /profiles`` fans out to every live shard
  and answers with the merged listing, deduplicating replica copies by
  content id. ``GET /trend`` / ``GET /sketch`` are *routed* (single
  shard: the key's primary, or its replica with ``degraded=true``
  marked in the response) — routing, not fan-out, is what keeps
  replicated profiles from double-counting in aggregates. A read the
  shards fail answers 502.

A poll thread, every ``poll_interval_s``, probes down shards back up,
requeues the jobs of shards marked down elsewhere (``ShardPlane.kill``),
starts watchers for shards back up or newly added, and applies the
retention age limit.

Endpoints::

    POST /jobs                    accept a job (202, gw id); a submit_key dedupes
    GET  /jobs                    the ledger (paged) with status counts
    GET  /jobs/<gw id>            one ledger record
    GET  /health                  counters, ledger, WAL, epoch, live/down shards
    GET  /shards                  the router's ring and shard health
    POST /reshard                 {"action": "add"|"remove", "shard"?} (202)
    GET  /reshard                 the running or last migration
    GET  /profiles                fan-out listing, deduplicated by content id
    GET  /profiles/<id>           a stored profile from any live shard
    GET  /trend, GET /sketch      routed to the key's primary (or replica)
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import ServeError, StoreError
from repro.serve.client import ServeClient, query_path
from repro.serve.healing import RetryPolicy
from repro.serve.httpapi import (
    HttpError,
    JsonServer,
    Request,
    Routes,
    json_object,
    page_params,
    paginate,
)
from repro.serve.jobs import (
    TERMINAL,
    TERMINAL_RETENTION_MAX,
    TERMINAL_RETENTION_S,
    Job,
    JobTable,
    new_job,
    pop_submit_key,
)
from repro.serve.router import ShardRouter, shard_key
from repro.serve.wal import WriteAheadLog

#: Threads flushing dispatch batches, one shard per thread at a time.
_FLUSH_WORKERS = 8

#: How long a watcher's long-poll waits for a finish; it also bounds how
#: long a stopping gateway waits for its watchers.
_WATCH_WAIT_S = 1.0

#: Read timeout of a shard request (a long-poll adds its wait).
_SHARD_TIMEOUT_S = 30.0

#: WAL appends after which the poll thread checkpoints the ledger.
_WAL_COMPACT_EVERY = 2048


class ServeFrontend:
    """HTTP gateway over a :class:`ShardRouter`."""

    def __init__(
        self,
        router: ShardRouter,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval_s: float = 0.25,
        wal: Union[WriteAheadLog, str, Path, None] = None,
        plane=None,
    ) -> None:
        self.router = router
        #: Down-shard probe and ledger-maintenance interval.
        self.poll_interval_s = poll_interval_s
        #: Durable ledger log; ``None`` keeps the PR 9 in-memory-only
        #: behavior. A path constructs the log in that directory.
        if wal is None or isinstance(wal, WriteAheadLog):
            self.wal = wal
        else:
            self.wal = WriteAheadLog(wal)
        #: The ShardPlane behind the router, when this gateway owns one;
        #: needed only for ``POST /reshard`` (adding/removing daemons).
        self.plane = plane
        self._server = JsonServer((host, port), _routes(self))
        self._io = ThreadPoolExecutor(max_workers=_FLUSH_WORKERS)
        #: Next gw sequence number (a plain int so checkpoints can carry
        #: it — ids must never recycle across restarts).
        self._gw_next = 1
        self._lock = threading.RLock()
        #: Serializes an accept's (WAL append + ledger insert) against a
        #: checkpoint's (snapshot + log truncate) — the pair must be
        #: atomic or a compaction can truncate an accept record its
        #: snapshot never saw, losing a 202'd job. A dedicated gate
        #: (rather than ``_lock``) keeps the append's I/O from blocking
        #: ledger readers: status polls, /health, and the dispatcher
        #: only ever take ``_lock``, which accepts hold just briefly.
        self._wal_gate = threading.Lock()
        #: gw id -> ledger record (see :meth:`_accept_job`). Status goes
        #: ``accepted`` → ``dispatched`` → ``done``/``error``; a
        #: re-dispatch after shard death moves a job back to ``accepted``.
        self.ledger = JobTable(self._lock)
        #: gw ids accepted but not yet flushed to a shard.
        self._pending: List[str] = []
        self._batch_event = threading.Event()
        #: shard -> {shard job id: (gw id, monotonic dispatch time)} for
        #: every record dispatched there and not yet terminal, so matching
        #: a watcher's answer costs the answer's size, not the ledger's.
        self._in_flight: Dict[str, Dict[str, Tuple[str, float]]] = {}
        #: shard -> its watcher thread (see :meth:`_watch`).
        self._watchers: Dict[str, threading.Thread] = {}
        #: shard -> the lock a submit to it holds until its dispatch is
        #: recorded, and its watcher holds while applying an answer.
        self._gates: Dict[str, threading.Lock] = {}
        self.stats = {
            "accepted": 0,
            "dispatched": 0,
            "redispatched": 0,
            "dispatch_failures": 0,
            "shards_marked_down": 0,
            "shards_marked_up": 0,
            "deduped": 0,
            "recovered": 0,
            "recovered_requeued": 0,
            "evicted_terminal": 0,
            "wal_append_failures": 0,
            "reshards": 0,
        }
        self._reshard: Optional[Dict] = None
        self._reshard_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stop_event = threading.Event()
        self._started = False

    # -- lifecycle ------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        if self._started:
            raise ServeError("frontend already started")
        self._started = True
        if self.wal is not None:
            self._recover()
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop, name="repro-gateway-dispatch", daemon=True
            ),
            threading.Thread(
                target=self._poll_loop, name="repro-gateway-poll", daemon=True
            ),
        ]
        for thread in self._threads:
            thread.start()
        self._threads.append(self._server.start("repro-gateway-http"))
        self._ensure_watchers(self.router.live_shards())

    def stop(self) -> None:
        """Stop serving; release the socket, the flush pool and the WAL.

        A gateway that never started holds the same resources; its WAL
        is closed without a checkpoint.
        """
        if self._halt() and self.wal is not None:
            # Clean shutdown: fold the whole ledger into the checkpoint
            # so the next boot replays a snapshot, not a long log. Under
            # the accept gate for the same reason as _maintain_ledger —
            # a straggling accept must not append into the log segment
            # this checkpoint truncates.
            try:
                with self._wal_gate:
                    self.wal.checkpoint(self._snapshot())
            except StoreError:
                pass
        if self.wal is not None:
            self.wal.close()
        stuck = [t.name for t in self._all_threads() if t.is_alive()]
        if stuck:
            raise ServeError(f"gateway threads failed to stop: {stuck}")

    def kill(self) -> None:
        """Crash-stop: the in-process model of ``kill -9``.

        Severs every socket and stops the threads with **no** clean
        shutdown — no pending flush, no WAL checkpoint, no fsync. The
        only state that survives is what :meth:`_accept_job` already
        wrote to the log before answering 202, which is exactly the
        durability contract the chaos suite asserts: a fresh
        ``ServeFrontend`` over the same WAL directory recovers every
        accepted job.
        """
        self._halt()
        if self.wal is not None:
            self.wal.abandon()

    def _halt(self) -> bool:
        """Close the server and join the threads; True if it was running."""
        with self._lock:  # no watcher starts after this
            started, self._started = self._started, False
        self._stop_event.set()
        self._batch_event.set()
        self._server.close()
        for thread in self._all_threads():
            thread.join(timeout=5)
        self._io.shutdown(wait=False, cancel_futures=True)
        return started

    def _all_threads(self) -> List[threading.Thread]:
        with self._lock:
            return self._threads + list(self._watchers.values())

    # -- durable ledger (WAL) -------------------------------------------

    def _recover(self) -> None:
        """Rebuild the ledger from checkpoint + log and requeue the backlog.

        Application is keyed by ``gw_id`` and idempotent, so replaying a
        log that partially overlaps the checkpoint (a crash landed
        between snapshot and truncate) converges to the same ledger.
        Every non-terminal record is requeued to ``accepted``: nothing
        is in flight yet, and ``shard_job_id``s minted by a previous
        process incarnation cannot be trusted (a restarted shard reuses
        them), so re-dispatch-from-scratch is the only safe reading.
        Dispatch is thereby at-least-once across a crash; storage stays
        exactly-once via content addressing.
        """
        checkpoint = self.wal.load_checkpoint() or {}
        ledger: Dict[str, Job] = {}
        for gw_id, record in (checkpoint.get("ledger") or {}).items():
            if isinstance(record, dict) and record.get("id") == gw_id:
                ledger[gw_id] = Job.from_dict(record)
        records = self.wal.replay()
        for op in records:
            self._apply_wal_record(op, ledger)
        # The sequence floor must survive even a fully-compacted boot
        # (empty ledger, empty log, checkpoint = {ledger: {}, next_gw:
        # N}): gw ids never recycle across restarts, or a client polling
        # a pre-crash id could observe a different job's status.
        next_gw = int(checkpoint.get("next_gw", 1) or 1)
        for gw_id in ledger:
            try:
                next_gw = max(next_gw, int(gw_id.split("-", 1)[1]) + 1)
            except (IndexError, ValueError):
                continue
        self._gw_next = next_gw
        if not ledger and not records:
            return
        unfinished = sorted(
            gw_id for gw_id, record in ledger.items() if record.status not in TERMINAL
        )
        requeued = sum(ledger[gw_id].status != "accepted" for gw_id in unfinished)
        _transition(ledger, {"op": "requeue", "ids": unfinished})
        with self._lock:
            for gw_id in sorted(ledger):
                self.ledger.add(ledger[gw_id])
            self._pending.extend(unfinished)
            # In finish order, so that the cap keeps the newest.
            for at, gw_id in sorted(
                (record.timeline.get("terminal") or record.timeline["accepted"], gw_id)
                for gw_id, record in ledger.items()
                if record.status in TERMINAL
            ):
                self.stats["evicted_terminal"] += self.ledger.finish(gw_id, at)
        self.stats["recovered"] = len(ledger)
        self.stats["recovered_requeued"] = requeued
        self._batch_event.set()

    @staticmethod
    def _apply_wal_record(op: Dict, ledger: Dict[str, Job]) -> None:
        """Fold one replayed WAL record into ``ledger`` (idempotent): an
        accept inserts its record, and any other is a :func:`_transition`."""
        record = op.get("record")
        if op.get("op") != "accept":
            _transition(ledger, op)
        elif isinstance(record, dict) and record.get("id"):
            ledger[record["id"]] = Job.from_dict(record)

    def _snapshot(self) -> Dict:
        """The checkpoint payload for the current ledger."""
        with self._lock:
            return {
                "format": 1,
                "next_gw": self._gw_next,
                "ledger": {gw: record.to_dict() for gw, record in self.ledger.items()},
            }

    def _wal_append(self, op: Dict) -> None:
        """Best-effort transition append (dispatch/terminal/requeue).

        Failures here are tolerable — recovery requeues every
        non-terminal job anyway, and a lost ``terminal`` record only
        costs one redundant re-run that content addressing absorbs. The
        one append that must *not* fail silently is ``accept``, which
        :meth:`_accept_job` performs strictly before answering 202.
        """
        if self.wal is None:
            return
        try:
            self.wal.append(op)
        except StoreError:
            with self._lock:
                self.stats["wal_append_failures"] += 1

    def _maintain_ledger(self) -> None:
        """Apply the retention age limit; compact the WAL when due.

        Terminal records are kept ``TERMINAL_RETENTION_S`` (so clients
        can still poll a finished job), and a finish past
        ``TERMINAL_RETENTION_MAX`` evicts the oldest. Every
        ``_WAL_COMPACT_EVERY`` appends trigger a checkpoint + truncate,
        which is what keeps the log bounded under sustained traffic. An
        eviction does not: recovery re-applies retention.
        """
        with self._lock:
            self.stats["evicted_terminal"] += self.ledger.evict(time.time())
        if self.wal is not None and (
            self.wal.records_since_checkpoint >= _WAL_COMPACT_EVERY
        ):
            try:
                # Snapshot and truncate under the accept gate: an accept
                # appends + inserts inside the same gate, so the
                # snapshot either already contains its record or the
                # append lands after the truncate — never in a log
                # segment the checkpoint is about to discard.
                with self._wal_gate:
                    self.wal.checkpoint(self._snapshot())
            except StoreError:
                with self._lock:
                    self.stats["wal_append_failures"] += 1

    # -- gateway job ledger ---------------------------------------------

    def _dedupe_locked(self, submit_key: Optional[str]) -> Optional[Dict]:
        """The prior record for ``submit_key``, or ``None`` if unseen.

        Caller holds ``self._lock``.
        """
        prior = self.ledger.find(submit_key)
        if prior is None:
            return None
        self.stats["deduped"] += 1
        return {**prior.to_dict(), "deduped": True}

    def _accept_job(self, body: bytes) -> Dict:
        # The key stays here: the submission a shard gets carries none.
        payload, submit_key = pop_submit_key(json_object(body))
        with self._lock:
            deduped = self._dedupe_locked(submit_key)
        if deduped is not None:
            return deduped
        job = new_job(payload, submit_key)  # full validation
        with self._wal_gate:
            # The gate spans dedupe re-check → WAL append → ledger
            # insert. The re-check closes the check-then-act window two
            # racing resubmits would slip through (validation above runs
            # unlocked), and _maintain_ledger snapshots + truncates
            # under this same gate, so a compaction can never truncate
            # an appended accept before its snapshot sees it.
            with self._lock:
                deduped = self._dedupe_locked(submit_key)
                if deduped is not None:
                    return deduped
                # Accepts run on concurrent request threads — the
                # sequence allocation must be atomic or two of them
                # mint the same gw id.
                job.id = f"gw-{self._gw_next:08d}"
                self._gw_next += 1
            job.status, job.timeline = "accepted", {"accepted": time.time()}
            record = job.to_dict()
            if self.wal is not None:
                # Strict: 202 *means* durable. A failed append (torn
                # write, full disk) refuses the job so the client knows
                # to retry.
                try:
                    self.wal.append({"op": "accept", "record": record})
                except StoreError as exc:
                    with self._lock:
                        self.stats["wal_append_failures"] += 1
                    raise ServeError(f"job not accepted: {exc}") from None
            with self._lock:
                self.ledger.add(job)
                self._pending.append(job.id)
                self.stats["accepted"] += 1
        self._batch_event.set()
        return record

    def _jobs_listing(self, query: Dict) -> Dict:
        limit, offset = page_params(query)
        with self._lock:
            records = [record.to_dict() for record in self.ledger.values()]
        return {
            "jobs": paginate(records, limit, offset),
            "counts": dict(Counter(record["status"] for record in records)),
            "total": len(records),
        }

    def _health(self) -> Dict:
        with self._lock:
            counts = dict(Counter(record.status for record in self.ledger.values()))
            pending = len(self._pending)
            stats = dict(self.stats)
            ledger_size = len(self.ledger)
        terminal = sum(counts.get(s, 0) for s in TERMINAL)
        return {
            "status": "ok",
            "role": "gateway",
            "jobs": counts,
            "pending_batch": pending,
            "stats": stats,
            "ledger": {
                "size": ledger_size,
                "terminal": terminal,
                "evicted_terminal": stats["evicted_terminal"],
                "retention_s": TERMINAL_RETENTION_S,
                "retention_max": TERMINAL_RETENTION_MAX,
            },
            "wal": self.wal.stats_dict() if self.wal is not None else None,
            "epoch": self.router.epoch,
            "migrating": self.router.migrating,
            "shards": {
                "live": self.router.live_shards(),
                "down": self.router.down_shards(),
            },
        }

    # -- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        # Accepts, requeues and shard recoveries set the event; the
        # timeout retries jobs that no live shard could take.
        while not self._stop_event.is_set():
            self._batch_event.wait(self.poll_interval_s)
            self._batch_event.clear()
            if self._stop_event.is_set():
                return
            self._flush_pending()

    def _flush_pending(self) -> None:
        with self._lock:
            batch, self._pending = self._pending[:], []
        if not batch:
            return
        by_shard: Dict[str, List[str]] = {}
        unroutable: List[str] = []
        with self._lock:
            for gw_id in batch:
                record = self.ledger.get(gw_id)
                if record is None or record.status in TERMINAL:
                    continue
                try:
                    shard, _ = self.router.route(record.workload, record.config_hash)
                except ServeError:
                    unroutable.append(gw_id)
                    continue
                by_shard.setdefault(shard, []).append(gw_id)
        if unroutable:
            # Every owner of these keys is down; keep them queued — the
            # poller re-arms the batch when a shard comes back.
            with self._lock:
                self._pending.extend(unroutable)
        futures = [
            self._io.submit(self._flush_to_shard, shard, gw_ids)
            for shard, gw_ids in by_shard.items()
        ]
        for future in futures:
            future.result()

    def _flush_to_shard(self, shard: str, gw_ids: List[str]) -> None:
        client = self._client(shard)
        for n, gw_id in enumerate(gw_ids):
            if self._stop_event.is_set():
                return  # abandon the flush; the ledger keeps the backlog
            with self._lock:
                record = self.ledger.get(gw_id)
                if record is None or record.status in TERMINAL:
                    continue
                submission = record.submission()
            # The job can finish before its dispatch is recorded; holding
            # the gate keeps the shard's watcher from applying that report
            # until the record is there to take it.
            with self._gate(shard):
                try:
                    job = client._request("/jobs", body=submission)["job"]
                except ServeError as exc:
                    # Requeue the rest of the batch with it: no longer
                    # pending, they would be dispatched by no one.
                    self._shard_trouble(shard, gw_ids=gw_ids[n:], reason=str(exc))
                    return
                self._record_dispatch(shard, gw_id, job["id"])

    def _record_dispatch(self, shard: str, gw_id: str, shard_job_id: str) -> None:
        """Mark a record dispatched to ``shard`` (under the shard's gate).

        The record's ``at`` is the job's ``dispatched`` stamp, on the wall
        clock like ``accepted``; the monotonic stamp in ``_in_flight``
        orders the dispatch against a watcher's request (see
        :meth:`_apply_changes`), which a wall-clock step must not reorder.
        """
        op = {"op": "dispatch", "id": gw_id, "shard": shard,
              "shard_job_id": shard_job_id, "at": time.time()}
        with self._lock:
            if _transition(self.ledger, op):
                self._in_flight.setdefault(shard, {})[shard_job_id] = (
                    gw_id, time.monotonic()
                )
                self.stats["dispatched"] += 1
        self._wal_append(op)

    def _gate(self, shard: str) -> threading.Lock:
        with self._lock:
            return self._gates.setdefault(shard, threading.Lock())

    def _dispatched_locked(self, shard: str) -> List[str]:
        """The gw ids in flight on ``shard`` (caller holds ``_lock``)."""
        return [gw_id for gw_id, _ in self._in_flight.get(shard, {}).values()]

    def _requeue_locked(self, gw_ids: Iterable[str]) -> List[str]:
        """Send records back to ``accepted`` for re-dispatch.

        Caller holds ``_lock``, then logs the returned (sorted) ids as
        one WAL ``requeue`` record and wakes the dispatcher.
        """
        requeued = sorted(gw_ids)
        for gw_id in requeued:
            record = self.ledger[gw_id]
            self._in_flight.get(record.shard, {}).pop(record.shard_job_id, None)
        _transition(self.ledger, {"op": "requeue", "ids": requeued})
        self._pending.extend(requeued)
        self.stats["redispatched"] += len(requeued)
        return requeued

    def _shard_trouble(
        self, shard: str, *, gw_ids: Optional[List[str]] = None, reason: str = ""
    ) -> None:
        """A shard stopped answering: mark it down, requeue its jobs."""
        if not self.router.is_down(shard):
            try:
                self.router.mark_down(shard)
            except ServeError:
                return  # already decommissioned (reshard remove race)
            with self._lock:
                self.stats["shards_marked_down"] += 1
        with self._lock:
            stranded = set(gw_ids or [])
            stranded.update(self._dispatched_locked(shard))
            requeued = self._requeue_locked(stranded)
            self.stats["dispatch_failures"] += len(requeued)
        if requeued:
            self._wal_append({"op": "requeue", "ids": requeued})
        self._batch_event.set()

    # -- completions: one watcher per shard ------------------------------

    def _ensure_watchers(self, shards: Iterable[str]) -> None:
        """Start a watcher for each of ``shards`` without a running one.

        Every live shard is watched from the gateway's start, whether or
        not it has jobs: no watcher thread is then started in the middle
        of a burst, which put an in-process plane into a regime where it
        accepted half as many jobs per second (DESIGN.md §12).
        """
        with self._lock:
            if not self._started:
                return  # stopping
            for shard in shards:
                watcher = self._watchers.get(shard)
                if watcher is not None and watcher.is_alive():
                    continue
                watcher = threading.Thread(
                    target=self._watch,
                    args=(shard,),
                    name=f"repro-gateway-watch-{shard}",
                    daemon=True,
                )
                self._watchers[shard] = watcher
                watcher.start()

    def _watch(self, shard: str) -> None:
        """Hold a long-poll on ``shard``'s change cursor.

        Runs until the gateway stops or the shard is down; a failed
        request marks it down and requeues its jobs. The cursor starts
        empty, so the first answer is ``full`` and reconciles.
        """
        cursor = ("", 0)
        while not self._stop_event.is_set() and not self.router.is_down(shard):
            try:
                cursor = self._watch_once(shard, cursor)
            except ServeError as exc:
                self._shard_trouble(shard, reason=str(exc))
                return

    def _watch_once(self, shard: str, cursor: Tuple[str, int]) -> Tuple[str, int]:
        """One long-poll on ``shard``, applied; returns the next cursor."""
        boot, since = cursor
        client = self._client(shard, wait_s=_WATCH_WAIT_S)
        sent_at = time.monotonic()
        answer = client.jobs_since(since, boot, _WATCH_WAIT_S)
        with self._gate(shard):
            self._apply_changes(shard, answer, sent_at)
        return answer["boot"], answer["seq"]

    def _apply_changes(self, shard: str, answer: Dict, sent_at: float) -> None:
        """Apply one cursor answer from ``shard`` to the ledger.

        A finished job makes its record terminal. A ``full`` answer also
        reconciles: a record dispatched before the request was sent at
        ``sent_at`` (``time.monotonic()``) and missing from the table was
        lost (the shard restarted) and is requeued. A record dispatched
        later may postdate the table, so its absence proves nothing.
        """
        transitions: List[Dict] = []
        with self._lock:
            in_flight = self._in_flight.get(shard, {})
            lost = []
            if answer["full"]:
                listed = {job["id"] for job in answer["jobs"]}
                lost = [
                    gw_id
                    for job_id, (gw_id, dispatched) in in_flight.items()
                    if job_id not in listed and dispatched < sent_at
                ]
            for job in answer["jobs"]:
                if job["status"] in TERMINAL and job["id"] in in_flight:
                    gw_id, _ = in_flight.pop(job["id"])
                    op = {
                        "op": "terminal",
                        "id": gw_id,
                        "status": job["status"],
                        "profile_id": job.get("profile_id"),
                        "error": job.get("error"),
                        "at": time.time(),
                    }
                    _transition(self.ledger, op)
                    self.stats["evicted_terminal"] += self.ledger.finish(
                        gw_id, op["at"]
                    )
                    transitions.append(op)
            requeued = self._requeue_locked(lost)
        for op in transitions:
            self._wal_append(op)
        if requeued:
            self._wal_append({"op": "requeue", "ids": requeued})
            self._batch_event.set()

    # -- poller ----------------------------------------------------------

    def _poll_loop(self) -> None:
        while not self._stop_event.wait(self.poll_interval_s):
            try:
                self._poll_once()
            except Exception:  # noqa: BLE001 — the poller must survive
                pass

    def _poll_once(self) -> None:
        # Probe down shards back up (a revived daemon answers /health).
        for shard in self.router.down_shards():
            try:
                probe = ServeClient(
                    self.router.url(shard),
                    timeout=2.0,
                    connect_timeout_s=1.0,
                    retry=RetryPolicy(1),
                )
                probe.health()
            except ServeError:
                continue
            self.router.mark_up(shard)
            with self._lock:
                self.stats["shards_marked_up"] += 1
            self._batch_event.set()
        # A shard can be marked down without its watcher failing
        # (ShardPlane.kill marks the router itself), so its jobs are
        # requeued here. A shard back up or newly added gets a watcher.
        with self._lock:
            shards = [shard for shard, jobs in self._in_flight.items() if jobs]
        for shard in sorted(shards):
            if self.router.is_down(shard):
                self._shard_trouble(shard, reason="marked down")
        self._ensure_watchers(self.router.live_shards())
        self._maintain_ledger()

    # -- live resharding -------------------------------------------------

    def reshard_status(self) -> Dict:
        with self._reshard_lock:
            status = dict(self._reshard) if self._reshard else {"state": "idle"}
        status["epoch"] = self.router.epoch
        status["migrating"] = self.router.migrating
        return status

    def _start_reshard(self, spec: Dict) -> Dict:
        """Begin an add/remove migration in a background thread.

        One at a time: a second ``POST /reshard`` while a migration is
        in flight is refused (409) rather than queued — ring epochs are
        a two-ring protocol, not an n-ring one.
        """
        action = spec.get("action")
        if action not in ("add", "remove"):
            raise ServeError("reshard needs {'action': 'add'|'remove', ...}")
        if self.plane is None:
            raise ServeError(
                "gateway has no shard plane attached; resharding unavailable"
            )
        shard = spec.get("shard")
        if action == "remove" and not shard:
            raise ServeError("reshard remove needs {'shard': <name>}")
        with self._reshard_lock:
            if self._reshard and self._reshard.get("state") in (
                "starting",
                "migrating",
            ):
                raise HttpError(
                    409, f"reshard already in progress ({self._reshard['action']})"
                )
            self._reshard = {
                "action": action,
                "shard": shard,
                "state": "starting",
                "keys_total": 0,
                "keys_moved": 0,
                "entries_copied": 0,
                "error": None,
                "started_at": time.time(),
                "finished_at": None,
            }
        thread = threading.Thread(
            target=self._run_reshard,
            args=(action, shard),
            name="repro-gateway-reshard",
            daemon=True,
        )
        thread.start()
        return self.reshard_status()

    def _run_reshard(self, action: str, shard: Optional[str]) -> None:
        """The migration state machine: grow/shrink → copy → finalize.

        * ``add``: boot the daemon, begin the epoch (new ring includes
          it), copy every key's history to owners it gained, finalize.
        * ``remove``: begin the epoch (new ring excludes it), copy,
          finalize, drain the leaver's in-flight jobs, decommission it.

        Reads keep flowing the whole time: the router serves them from
        the union of old and new owners, old primary first. On any
        failure the epoch is aborted, restoring the old ring intact.
        """
        began = False
        try:
            if action == "add":
                name = self.plane.add_shard()
                members = list(self.router.ring.shards) + [name]
            else:
                name = shard
                if name not in self.router.ring.shards:
                    raise ServeError(f"unknown shard {name!r}")
                members = [s for s in self.router.ring.shards if s != name]
                if not members:
                    raise ServeError("cannot remove the last shard")
            with self._reshard_lock:
                self._reshard["shard"] = name
            epoch = self.router.begin_epoch(members)
            began = True
            with self._reshard_lock:
                self._reshard["state"] = "migrating"
            self._wal_append(
                {"op": "reshard", "action": action, "shard": name, "epoch": epoch}
            )
            copied, total, moved = self._migrate_entries(epoch)
            self.router.finalize_epoch()
            if action == "remove":
                self._drain_shard(name)
                self.plane.remove_shard(name)
            with self._reshard_lock:
                self._reshard.update(
                    state="done",
                    entries_copied=copied,
                    keys_total=total,
                    keys_moved=moved,
                    finished_at=time.time(),
                )
            with self._lock:
                self.stats["reshards"] += 1
            self._batch_event.set()
        except Exception as exc:  # noqa: BLE001 — must record the failure
            if began:
                try:
                    self.router.abort_epoch()
                except ServeError:
                    pass
            with self._reshard_lock:
                self._reshard.update(
                    state="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    finished_at=time.time(),
                )

    def _migrate_entries(self, epoch: int) -> Tuple[int, int, int]:
        """Copy stored profiles to the owners the new ring gave them.

        Each entry is copied **once**, from its key's live old primary,
        to each new owner that is not already an old owner — via the
        idempotent ``/replicate`` endpoint, tagged with the new epoch.
        Profiles ingested concurrently are covered by the daemons' own
        dual-ring replication, so the migration needs no quiesce.
        """
        prev, ring = self.router.prev_ring, self.router.ring
        if prev is None:
            return 0, 0, 0
        copied = 0
        all_keys = set()
        moved_keys = set()
        for src in prev.shards:
            if self.router.is_down(src):
                continue
            try:
                entries = self._client(src).profiles(limit=0)
            except ServeError:
                continue
            for entry in entries:
                workload = entry.get("workload", "")
                config = entry.get("config_hash", "")
                key = shard_key(workload, config)
                all_keys.add(key)
                old_owners = prev.owners(key)[:2]
                live_old = [s for s in old_owners if not self.router.is_down(s)]
                if not live_old or live_old[0] != src:
                    continue  # another shard is this key's copy source
                needed = [
                    t for t in ring.owners(key)[:2] if t not in old_owners
                ]
                if not needed:
                    continue
                try:
                    envelope = self._client(src).profile(entry["id"])
                except ServeError:
                    continue
                for target in needed:
                    try:
                        self._client(target)._request(
                            "/replicate",
                            body={
                                "entry": dict(entry),
                                "profile": envelope["profile"],
                                "epoch": epoch,
                            },
                        )
                    except ServeError:
                        continue
                    copied += 1
                    moved_keys.add(key)
                with self._reshard_lock:
                    self._reshard["entries_copied"] = copied
                    self._reshard["keys_moved"] = len(moved_keys)
        with self._reshard_lock:
            self._reshard["keys_total"] = len(all_keys)
        return copied, len(all_keys), len(moved_keys)

    def _drain_shard(self, name: str, *, timeout_s: float = 120.0) -> None:
        """Wait out (then requeue) the leaver's in-flight jobs.

        The leaving daemon stays up post-finalize, so its running jobs
        finish and replicate to the new ring's owners (its source is no
        longer an owner, so copies go to the full new owner pair). Jobs
        that outlive the timeout are requeued — the new ring's primary
        re-runs them.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline and not self._stop_event.is_set():
            with self._lock:
                if not self._dispatched_locked(name):
                    return
            time.sleep(min(0.1, self.poll_interval_s))
        with self._lock:
            requeued = self._requeue_locked(self._dispatched_locked(name))
        if requeued:
            self._wal_append({"op": "requeue", "ids": requeued})
            self._batch_event.set()

    # -- shard reads -----------------------------------------------------

    def _client(self, shard: str, *, wait_s: float = 0.0) -> ServeClient:
        """A client for ``shard``; a long-poll adds its ``wait_s``."""
        return ServeClient(
            self.router.url(shard),
            timeout=_SHARD_TIMEOUT_S + wait_s,
            connect_timeout_s=min(5.0, _SHARD_TIMEOUT_S),
        )

    def _routed_read(self, endpoint: str, query: Dict) -> Dict:
        """Route /trend and /sketch to the key's primary (or replica).

        Requires ``workload``: aggregates are sliced per key, and
        routing (instead of fanning out) is what keeps the replica
        copies from double-counting.
        """
        workload = query.get("workload")
        if not workload:
            raise ServeError(f"gateway {endpoint} needs ?workload=…")
        path = query_path(f"/{endpoint}", query)
        shard, degraded = self.router.route(workload, query.get("config_hash", ""))
        try:
            payload = self._client(shard)._request(path)
        except ServeError:
            self._shard_trouble(shard, reason=f"{endpoint} read failed")
            shard, degraded = self.router.route(workload, query.get("config_hash", ""))
            payload = self._client(shard)._request(path)
        payload["shard"] = shard
        payload["degraded"] = degraded
        return payload

    def _fetch_profile(self, profile_id: str) -> Dict:
        """Find a stored profile on any live shard (content-addressed)."""
        last: Optional[ServeError] = None
        for shard in self.router.live_shards():
            try:
                return self._client(shard).profile(profile_id)
            except ServeError as exc:
                last = exc
        raise last if last is not None else ServeError(f"unknown profile {profile_id!r}")

    def _list_profiles(self, query: Dict) -> Dict:
        """Fan-out listing over the live shards, deduplicated by content id."""
        profiles: List[Dict] = []
        seen: set = set()
        degraded = bool(self.router.down_shards())
        for shard in self.router.live_shards():
            try:
                page = self._client(shard)._request(query_path("/profiles", query))
            except ServeError:
                self._shard_trouble(shard, reason="profiles fan-out failed")
                degraded = True
                continue
            for entry in page["profiles"]:
                if entry["id"] not in seen:
                    seen.add(entry["id"])
                    profiles.append(entry)
        return {
            "profiles": profiles,
            "total": len(seen),
            "degraded": degraded,
            "shards": self.router.live_shards(),
        }


def _routes(gateway: ServeFrontend) -> Routes:
    """The gateway's HTTP API: the shards' surface over the whole plane."""

    def job(request: Request) -> Dict:
        with gateway._lock:
            record = gateway.ledger.get(request.parts[1])
            if record is not None:
                return {"job": record.to_dict()}
        raise HttpError(404, f"unknown gateway job {request.parts[1]!r}")

    return {
        # Submission is a ledger append with no shard I/O, so accept
        # latency is independent of shard health and queue depth.
        ("POST", "jobs"): lambda request: (
            202,
            {"job": gateway._accept_job(request.body)},
        ),
        ("GET", "health"): lambda request: gateway._health(),
        ("GET", "jobs"): lambda request: gateway._jobs_listing(request.query),
        ("GET", "jobs", "*"): job,
        ("GET", "shards"): lambda request: gateway.router.describe(),
        ("POST", "reshard"): lambda request: (
            202,
            gateway._start_reshard(request.json()),
        ),
        ("GET", "reshard"): lambda request: gateway.reshard_status(),
        ("GET", "profiles"): _shard_read(
            lambda request: gateway._list_profiles(request.query)
        ),
        ("GET", "profiles", "*"): _shard_read(
            lambda request: gateway._fetch_profile(request.parts[1])
        ),
        ("GET", "trend"): _shard_read(
            lambda request: gateway._routed_read("trend", request.query)
        ),
        ("GET", "sketch"): _shard_read(
            lambda request: gateway._routed_read("sketch", request.query)
        ),
    }


def _shard_read(read):
    """A read the shards answer: a failure among them is a 502."""

    def handler(request: Request) -> Dict:
        try:
            return read(request)
        except ServeError as exc:
            raise HttpError(502, str(exc)) from None

    return handler


def _transition(records: Mapping[str, Job], op: Dict) -> List[Job]:
    """Apply a ``dispatch``, ``terminal`` or ``requeue`` WAL record ``op``
    to the non-terminal records it names; returns them.

    The one place these transitions change a record: the live paths
    apply the record they then log, and replay the logged one. A
    dispatch or a terminal stamps its stage with ``at``; a requeue keeps
    the stamps. Other ops (``reshard`` markers) change nothing.
    """
    kind = op.get("op")
    if kind not in ("dispatch", "terminal", "requeue") or (
        kind == "terminal" and op.get("status") not in TERMINAL
    ):
        return []
    ids = op.get("ids", ()) if kind == "requeue" else (op.get("id"),)
    changed = [
        record
        for record in map(records.get, ids)
        if record is not None and record.status not in TERMINAL
    ]
    at = op.get("at")  # absent from dispatches logged before it was added
    for record in changed:
        if kind == "dispatch":
            record.status = "dispatched"
            record.shard, record.shard_job_id = op.get("shard"), op.get("shard_job_id")
            if at is not None:
                record.timeline["dispatched"] = at
        elif kind == "terminal":
            record.status = op["status"]
            record.profile_id, record.error = op.get("profile_id"), op.get("error")
            record.timeline["terminal"] = at
        else:
            record.status, record.shard, record.shard_job_id = "accepted", None, None
    return changed
