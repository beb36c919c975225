"""The continuous-profiling daemon: job queue, worker pool, HTTP API.

``python -m repro serve`` runs one of these. Architecture::

    HTTP clients ──POST /jobs──▶ job queue ──dispatcher──▶ worker pool
         ▲                                                (N processes,
         │                                                 execute_job)
         └──GET /profiles, /diff, /trend ◀── ProfileStore ◀── results

* Submissions are validated synchronously (bad payloads fail the POST),
  queued, and dispatched to a ``ProcessPoolExecutor`` — each worker runs
  the workload under the simulated runtime and ships the finished
  profile back as JSON text. Workers are forked, so they hold every
  descriptor of the serve process; each exits once that process is gone
  (:func:`_new_pool`), so a SIGKILL leaves no worker holding its port.
* The daemon process is the store's only writer: worker results are
  persisted on arrival, keyed by
  ``(workload, profiler, config hash, git tree hash)``.
* Jobs live in a :class:`~repro.serve.jobs.JobTable`, as the gateway's
  ledger does: a ``submit_key`` dedupes resubmissions, and a terminal
  job leaves, key and all, under the retention rule both roles share.
* The API is a route table on the shared :mod:`repro.serve.httpapi`
  server (the gateway runs the same one); profile payloads render
  through the existing :mod:`repro.ui` backends (``render_json`` /
  ``render_html``).

Self-healing (see DESIGN.md §8). The daemon assumes workers fail and
heals around them rather than trusting them:

* **Per-job timeouts** — a monitor thread enforces each job's
  wall-clock budget (``timeout_s`` on the job, else the daemon default).
  A queued-but-unstarted future is cancelled; a running one means a hung
  worker, so the whole pool is recycled.
* **Retry with backoff** — a failed attempt (worker exception, timeout,
  unpersistable result) retries up to
  :attr:`~repro.serve.healing.RetryPolicy.max_attempts` times with
  seeded exponential backoff + jitter.
* **Pool-break recovery** — a hard worker death (``os._exit``, segfault
  analog) breaks every in-flight future with ``BrokenProcessPool``. The
  first callback to notice respawns the pool and requeues all in-flight
  jobs *exactly once per incident* (late callbacks hit an orphan guard);
  a per-job ``crash_requeues`` cap stops a crash-looping job from
  riding incidents forever.
* **Circuit breaker** — repeated *clean* failures of one workload open
  its circuit: further jobs for it fail fast without burning a worker
  until a cooldown passes and a half-open probe succeeds. Pool-break
  incidents are deliberately not charged to the breaker — the victim
  set includes innocent bystanders.
* **Graceful drain** — SIGTERM (or :meth:`ProfileDaemon.drain`) stops
  accepting submissions, lets queued and in-flight jobs finish, then
  shuts down; :meth:`ProfileDaemon.stop` joins every thread with a
  deadline and cancels whatever is still pending.

The dispatcher holds a worker-slot semaphore so a job's timeout clock
only starts when a worker is actually free to run it.

Endpoints::

    GET  /health                  liveness + queue/worker/store/healing counters
    POST /jobs                    submit {workload, profiler?, mode?, scale?,
                                          config?, faults?, timeout_s?}
    GET  /jobs                    all jobs
    GET  /jobs?since=<seq>&boot=<id>&wait=<s>
                                  change cursor: the jobs finished after
                                  change <seq>, answered as soon as one
                                  exists (long-poll); the whole table
                                  ("full") for another boot or a cursor
                                  behind the retained change log
    GET  /jobs/<id>               one job (status, profile_id when done)
    GET  /profiles                store index (?workload=&profiler=&...)
    GET  /profiles/<id>           stored profile (?format=html for the web UI)
    POST /merge                   {"ids": [...]} -> merged profile id
    GET  /diff?a=<id>&b=<id>      per-line/function/leak deltas (b − a)
    GET  /trend?workload=...      time-ordered headline numbers + regressions
                                  (sketch-backed; ?exact=1 replays history)
    GET  /sketch?workload=...     streaming per-line statistics (?state=1 for
                                  the raw mergeable aggregator state)
    POST /replicate               {entry, profile} — idempotent replica write
                                  from a peer shard (scale-out plane)
    GET  /crossflow?id=<id>       boundary lints × stored crossing counters
    GET  /contention?id=<id>      lock blocked-time table + who-blocks-whom edges

Scale-out (DESIGN.md §12). A daemon can run as one shard of a plane:
``shard_name`` + a :class:`~repro.serve.router.ShardRouter` turn on
synchronous best-effort replication — every accepted profile is POSTed
to the key's replica shard (``owners(key)[1]`` on the ring), where
content addressing makes the write idempotent. Aggregation endpoints
answer from a :class:`~repro.serve.streaming.StreamingAggregator`
maintained in memory on ingest, so ``/trend`` is O(window) regardless
of history. A checkpoint thread writes it as ``sketches.json``, with the
store's ``index.json``, at most once per ``_CHECKPOINT_S``, and stop
writes the last; boot ingests every stored profile that checkpoint has
not seen. The checkpoint has its own thread because it is O(history):
on the monitor it would stall the deadline and retry tick.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import signal as signal_module
import threading
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Union

from repro.core.profile_data import ProfileData
from repro.errors import ReproError, ServeError, StoreError
from repro.serve.aggregate import diff_stored, find_regressions, merge_stored, trend
from repro.serve.client import ServeClient
from repro.serve.healing import CircuitBreaker, RetryPolicy
from repro.serve.httpapi import JsonServer, Request, Routes, page_params, paginate
from repro.serve.jobs import (
    JOB_STATUSES,
    Job,
    JobTable,
    execute_job,
    new_job,
    pop_submit_key,
)
from repro.serve.router import shard_key
from repro.serve.store import ProfileStore, git_tree_hash
from repro.serve.streaming import StreamingAggregator
from repro.ui import render_html, render_json

_SHUTDOWN = object()

#: How often the monitor thread checks deadlines and due retries.
_MONITOR_TICK_S = 0.02

#: The longest a ``GET /jobs?since=`` long-poll is held open.
_LONG_POLL_MAX_S = 30.0

#: Pool-break requeues a job may ride before it fails (a crash-looping
#: job must not ride incidents forever).
_MAX_CRASH_REQUEUES = 4

#: Read timeout of one replica write to a peer shard.
_REPLICATE_TIMEOUT_S = 10.0

#: The most often the checkpoint thread writes the index and sketch
#: checkpoints.
_CHECKPOINT_S = 5.0

#: How often a pool worker checks that the serve process still exists.
_ORPHAN_CHECK_S = 0.5


class ProfileDaemon:
    """Job-serving daemon around a :class:`ProfileStore`."""

    def __init__(
        self,
        store: Union[ProfileStore, str],
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        job_timeout_s: float = 120.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        shard_name: str = "",
        router=None,
    ) -> None:
        self.store = store if isinstance(store, ProfileStore) else ProfileStore(store)
        self.workers = max(1, workers)
        self.job_timeout_s = float(job_timeout_s)
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker(5)
        #: Scale-out identity: when both are set, accepted profiles
        #: replicate to the key's replica shard (see module docstring).
        self.shard_name = shard_name
        self.router = router
        self._sketch_path = self.store.root / "sketches.json"
        self._agg_lock = threading.Lock()
        self.aggregator = self._load_aggregator()
        self.tree_hash = git_tree_hash()
        self._lock = threading.RLock()
        #: job id -> Job; a change cursor is only good for one boot_id.
        self._jobs = JobTable(self._lock)
        self.boot_id = uuid.uuid4().hex
        self._queue: "queue.Queue" = queue.Queue()
        self._pool: Optional[ProcessPoolExecutor] = None
        #: job id -> the Future currently running it. Identity of the
        #: mapped future is the orphan guard: a done-callback whose
        #: future is no longer the mapped one was superseded by a
        #: timeout or pool-break incident and must do nothing.
        self._inflight: Dict[str, object] = {}
        self._deadlines: Dict[str, float] = {}
        #: job id -> monotonic instant its backoff expires.
        self._retry_at: Dict[str, float] = {}
        self._slots = threading.Semaphore(self.workers)
        #: Healing counters, surfaced in ``/health``.
        self.stats: Dict[str, int] = {
            "retries": 0,
            "requeues": 0,
            "timeouts": 0,
            "pool_breaks": 0,
            "pool_respawns": 0,
            "breaker_rejections": 0,
            "store_write_retries": 0,
            "sketch_ingests": 0,
            "sketch_save_failures": 0,
            "replications": 0,
            "replication_failures": 0,
            "replicated_in": 0,
        }
        self._server = JsonServer((host, port), _routes(self))
        self._threads: List[threading.Thread] = []
        self._started = False
        self._stopping = False
        self._draining = False
        self._stop_event = threading.Event()

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
            raise ServeError("daemon already started")
        self._started = True
        self._pool = _new_pool(self.workers)
        loops = [
            threading.Thread(target=loop, name=f"repro-serve-{name}", daemon=True)
            for loop, name in ((self._dispatch_loop, "dispatch"),
                               (self._monitor_loop, "monitor"),
                               (self._checkpoint_loop, "checkpoint"))
        ]
        for thread in loops:
            thread.start()
        self._threads = loops + [self._server.start("repro-serve-http")]

    def stop(self) -> None:
        """Shut down now: cancel pending work, join every thread."""
        with self._lock:
            if not self._started or self._stopping:
                return
            self._stopping = True
            self._jobs.changed.notify_all()  # long-polls answer now
        self._stop_event.set()
        self._server.close()
        self._queue.put(_SHUTDOWN)
        with self._lock:
            for job_id, future in list(self._inflight.items()):
                future.cancel()  # running futures finish; queued ones die
            for job_id in list(self._retry_at):
                del self._retry_at[job_id]
                self._finish_locked(
                    self._jobs[job_id],
                    "error",
                    error="daemon stopped before the retry ran",
                )
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        for thread in self._threads:
            thread.join(timeout=5)
        self._checkpoint()
        stuck = [t.name for t in self._threads if t.is_alive()]
        if stuck:
            raise ServeError(f"daemon threads failed to stop: {stuck}")
        self._started = False

    def drain(self, deadline_s: float = 60.0) -> None:
        """Graceful shutdown: finish accepted work first, then stop.

        New submissions are rejected immediately; queued, retrying, and
        in-flight jobs run to completion (or to their own give-up
        points). After ``deadline_s`` whatever is left is cut off by
        :meth:`stop`.
        """
        with self._lock:
            self._draining = True
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            with self._lock:
                idle = (
                    not self._inflight
                    and not self._retry_at
                    and self._queue.empty()
                )
            if idle:
                break
            time.sleep(_MONITOR_TICK_S)
        self.stop()

    def serve_forever(self) -> None:
        """Block until SIGTERM/SIGINT (the ``python -m repro serve`` loop).

        SIGTERM triggers a graceful drain; Ctrl-C stops immediately.
        """
        drain_requested = threading.Event()
        try:
            signal_module.signal(
                signal_module.SIGTERM, lambda *_: drain_requested.set()
            )
        except ValueError:
            pass  # not the main thread; signals handled by the embedder
        try:
            while not self._stop_event.is_set():
                if drain_requested.is_set():
                    self.drain()
                    return
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # -- job management -------------------------------------------------

    def submit(self, payload: Dict) -> Job:
        """Validate and enqueue a job; returns it in ``queued`` state.

        An optional ``submit_key`` (a client-generated idempotency key)
        dedupes retried submissions: a key seen before returns the job
        it named the first time instead of enqueuing a double-run. This
        is what lets a client safely resubmit after a lost response.
        """
        with self._lock:
            if self._draining or self._stopping:
                raise ServeError("daemon is draining; not accepting new jobs")
        payload, submit_key = pop_submit_key(payload)
        with self._lock:
            prior = self._jobs.find(submit_key)
        if prior is not None:
            return prior
        job = new_job(payload)
        with self._lock:
            prior = self._jobs.find(submit_key)
            if prior is not None:
                return prior
            self._jobs.add(job.id, job, submit_key)
        self._queue.put(job.id)
        return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job id {job_id!r}")
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.id)

    def changes(self, since: int, boot: str, wait_s: float) -> Dict:
        """The jobs finished after change ``since`` of boot ``boot``.

        Answers as soon as there is one, else after ``wait_s`` (capped at
        ``_LONG_POLL_MAX_S``) with none. A cursor from another boot, or
        one behind the trimmed change log, is answered ``full``: the
        whole table, from which the caller reconciles. Job dicts are
        built under the lock so none is caught halfway through a finish.
        """
        deadline = time.monotonic() + min(wait_s, _LONG_POLL_MAX_S)
        with self._lock:
            while True:
                cursor = {"boot": self.boot_id, "seq": self._jobs.seq}
                fresh = self._jobs.finished_since(since)
                if boot != self.boot_id or fresh is None:
                    jobs = [job.to_dict() for job in self.jobs()]
                    return {**cursor, "full": True, "jobs": jobs}
                remaining = deadline - time.monotonic()
                if fresh or remaining <= 0 or self._stopping:
                    jobs = [job.to_dict() for job in fresh]
                    return {**cursor, "full": False, "jobs": jobs}
                self._jobs.changed.wait(remaining)

    def health(self) -> Dict:
        with self._lock:
            counts = {status: 0 for status in JOB_STATUSES}
            for job in self._jobs.values():
                counts[job.status] += 1
            healing = dict(self.stats)
            draining = self._draining
        with self._agg_lock:
            sketch = {
                "keys": len(self.aggregator.keys()),
                "ingested": self.aggregator.ingested,
            }
        return {
            "status": "draining" if draining else "ok",
            "workers": self.workers,
            "jobs": counts,
            "profiles": len(self.store),
            "tree_hash": self.tree_hash,
            "healing": healing,
            "breaker": self.breaker.states(),
            "shard": self.shard_name,
            "sketch": sketch,
        }

    # -- streaming aggregation + replication ------------------------------

    def _load_aggregator(self) -> StreamingAggregator:
        """Load ``sketches.json`` (an unreadable one is never trusted:
        start empty), then ingest, oldest first, every stored unmerged
        profile it has not seen. The store is the source of truth."""
        try:
            payload = json.loads(self._sketch_path.read_text(encoding="utf-8"))
            aggregator = StreamingAggregator.from_dict(payload)
        except (OSError, ValueError, KeyError, TypeError, ReproError):
            aggregator = StreamingAggregator()
        self._checkpointed = aggregator.ingested  # as in sketches.json
        entries = sorted(
            self.store.entries(), key=lambda e: (e.get("created_at", 0.0), e["id"])
        )
        for entry in entries:
            if entry.get("parents") or entry["id"] in aggregator:
                continue
            try:
                aggregator.ingest(entry, self.store.get(entry["id"]))
            except (StoreError, ReproError):
                continue  # quarantined/corrupt blobs don't block boot
        return aggregator

    def _checkpoint_loop(self) -> None:
        while not self._stop_event.wait(_CHECKPOINT_S):
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Write the index and sketch checkpoints that have changed;
        non-fatal (a failure is counted, and boot replays what is lost).
        Runs on the checkpoint thread, and once more in stop() after that
        thread has been joined."""
        try:
            self.store.flush_index()
            with self._agg_lock:
                ingested = self.aggregator.ingested
                if ingested == self._checkpointed:
                    return
                text = json.dumps(self.aggregator.to_dict()) + "\n"
            self.store._atomic_write(self._sketch_path, text)
            self._checkpointed = ingested
        except (OSError, StoreError):
            with self._lock:
                self.stats["sketch_save_failures"] += 1

    def ingest_stored(self, profile_id: str, profile: ProfileData) -> bool:
        """Fold a just-stored profile into the streaming sketches."""
        entry = self.store.entry(profile_id)
        with self._agg_lock:
            fresh = self.aggregator.ingest(entry, profile)
        if fresh:
            with self._lock:
                self.stats["sketch_ingests"] += 1
        return fresh

    def _replication_targets(self, entry: Dict) -> List[str]:
        """The peer shards that should hold this profile's replica.

        Delegated to the router's placement rule: one replica in steady
        state; during a ring migration the copy also lands on the
        incoming epoch's owners (dual-write), which is what lets the
        migrator run while ingest continues.
        """
        if self.router is None or not self.shard_name:
            return []
        return self.router.replication_targets(
            entry.get("workload", ""),
            entry.get("config_hash", ""),
            source=self.shard_name,
        )

    def _replicate(self, entry: Dict, profile: ProfileData) -> None:
        """Best-effort synchronous replication to the key's peer owners.

        Failures are counted, not raised: the profile is durable on this
        shard, and content addressing makes any later re-replication
        idempotent. The replica's ``/replicate`` endpoint does not
        re-replicate, so two-shard rings cannot ping-pong. Each copy is
        tagged with the sender's ring epoch so a receiver (or a log
        reader) can spot traffic from a stale ring view.
        """
        targets = self._replication_targets(entry)
        if not targets:
            return
        body = {"entry": entry, "profile": profile.to_dict(), "epoch": self.router.epoch}
        for target in targets:
            try:
                ServeClient(
                    self.router.url(target),
                    timeout=_REPLICATE_TIMEOUT_S,
                    connect_timeout_s=None,
                    retry=RetryPolicy(1),
                )._request("/replicate", body=body)
                with self._lock:
                    self.stats["replications"] += 1
            except ServeError:
                # Also raised when the target was decommissioned between
                # the placement decision and the send — a benign race.
                with self._lock:
                    self.stats["replication_failures"] += 1

    def accept_replica(
        self, entry: Dict, profile_payload: Dict, *, epoch: Optional[int] = None
    ) -> Dict:
        """Store a peer shard's profile copy (idempotent; no re-replication).

        ``epoch`` is the sender's ring epoch; the freshest one seen is
        kept in the stats so operators can tell when replication traffic
        still carries a stale ring view after a reshard.
        """
        profile = ProfileData.from_dict(profile_payload)
        profile_id = self.store.put(
            profile,
            workload=entry.get("workload", ""),
            profiler=entry.get("profiler", "scalene"),
            config=entry.get("config_hash", ""),
            tree_hash=entry.get("tree_hash", ""),
            parents=entry.get("parents") or (),
            created_at=entry.get("created_at"),
        )
        if entry.get("id") and entry["id"] != profile_id:
            raise ServeError(
                f"replicated profile hashed to {profile_id[:12]}…, "
                f"peer claimed {entry['id'][:12]}…"
            )
        self.ingest_stored(profile_id, profile)
        with self._lock:
            self.stats["replicated_in"] += 1
            if epoch is not None:
                self.stats["replica_epoch"] = max(
                    self.stats.get("replica_epoch", 0), int(epoch)
                )
        return {"id": profile_id, "shard": self.shard_name}

    # -- dispatch -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            # Hold a worker slot before submitting so the job's timeout
            # clock starts at (approximately) execution start, not while
            # it waits behind other jobs in the pool's internal queue.
            while not self._slots.acquire(timeout=0.1):
                if self._stop_event.is_set():
                    return
            if not self._dispatch_one(item):
                self._slots.release()

    def _dispatch_one(self, job_id: str) -> bool:
        """Submit one job to the pool; True iff it now holds the slot."""
        with self._lock:
            job = self._jobs[job_id]
            if job.status != "queued" or self._stopping:
                return False
            if not self.breaker.allow(job.workload):
                self.stats["breaker_rejections"] += 1
                self._finish_locked(
                    job,
                    "error",
                    error=f"circuit open for workload {job.workload!r} "
                    f"(repeated failures); retry after cooldown",
                )
                return False
            job.status = "running"
            job.attempts += 1
            job.started_at = time.time()
            payload = job.payload()
        try:
            future = self._pool.submit(execute_job, payload)
        except BrokenProcessPool:
            # The pool broke and no callback has respawned it yet.
            with self._lock:
                self.stats["pool_breaks"] += 1
                survivors = self._pool_incident()
                self._requeue_after_incident(
                    self._jobs[job_id], "worker pool was broken at dispatch"
                )
                for other_id in survivors:
                    self._requeue_after_incident(
                        self._jobs[other_id],
                        "worker pool broken by another job's crash",
                    )
                self._release_slots(len(survivors))
            return False
        except RuntimeError:
            # Pool already shut down — daemon is stopping.
            with self._lock:
                self._finish_locked(
                    job, "error", error="daemon shut down before the job ran"
                )
            return False
        with self._lock:
            self._inflight[job_id] = future
            timeout = job.timeout_s if job.timeout_s else self.job_timeout_s
            self._deadlines[job_id] = time.monotonic() + timeout
        future.add_done_callback(
            lambda fut, job_id=job_id: self._on_job_done(job_id, fut)
        )
        return True

    # -- monitor (timeouts, due retries) ---------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(_MONITOR_TICK_S):
            now = time.monotonic()
            with self._lock:
                for job_id, due in list(self._retry_at.items()):
                    if now >= due:
                        del self._retry_at[job_id]
                        self._queue.put(job_id)
                expired = [
                    job_id
                    for job_id, deadline in self._deadlines.items()
                    if now > deadline
                ]
                for job_id in expired:
                    self._handle_timeout(job_id)
                self._jobs.evict(time.time())

    def _handle_timeout(self, job_id: str) -> None:
        """One job blew its deadline (called with the lock held)."""
        future = self._inflight.pop(job_id, None)
        self._deadlines.pop(job_id, None)
        if future is None:
            return
        job = self._jobs[job_id]
        self.stats["timeouts"] += 1
        self._slots.release()
        timeout = job.timeout_s if job.timeout_s else self.job_timeout_s
        if future.cancel():
            # Never reached a worker; retry costs nothing.
            self._record_failure(job, f"timed out after {timeout:.1f}s (unstarted)")
            return
        # The worker is running — and possibly hung. Recycle the whole
        # pool: the hung process is killed, innocent in-flight jobs are
        # requeued exactly once for this incident.
        survivors = self._pool_incident()
        for other_id in survivors:
            self._requeue_after_incident(
                self._jobs[other_id], "worker pool recycled after another job hung"
            )
        self._release_slots(len(survivors))
        self._record_failure(job, f"timed out after {timeout:.1f}s (worker hung)")

    # -- completion / healing -------------------------------------------

    def _on_job_done(self, job_id: str, future) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or self._inflight.get(job_id) is not future:
                return  # orphaned by a timeout or pool-break incident
            del self._inflight[job_id]
            self._deadlines.pop(job_id, None)
            self._slots.release()
            if future.cancelled():
                self._finish_locked(job, "error", error="cancelled at daemon shutdown")
                return
            exc = future.exception()
            if isinstance(exc, BrokenProcessPool):
                # A worker died hard; every in-flight future is broken.
                # First callback in wins: respawn the pool, requeue the
                # whole in-flight set exactly once for this incident.
                self.stats["pool_breaks"] += 1
                survivors = self._pool_incident()
                self._requeue_after_incident(job, "worker process died mid-job")
                for other_id in survivors:
                    self._requeue_after_incident(
                        self._jobs[other_id],
                        "worker pool broken by another job's crash",
                    )
                self._release_slots(len(survivors))
                return
        if exc is not None:
            self._record_failure(job, f"{type(exc).__name__}: {exc}")
            return
        self._persist(job, future.result())

    def _persist(self, job: Job, result_json: str) -> None:
        """Store a finished profile, healing transient store failures."""
        try:
            profile = ProfileData.from_json(result_json)
        except ReproError as exc:
            self._record_failure(job, f"unreadable worker result: {exc}")
            return
        last_error: Optional[Exception] = None
        profile_id = None
        for attempt in range(3):
            try:
                profile_id = self.store.put(
                    profile,
                    workload=job.workload,
                    profiler=job.profiler,
                    config=job.config_hash,
                    tree_hash=self.tree_hash,
                )
                break
            except StoreError as exc:
                # E.g. an injected torn write: the partial object/index
                # is healed by the next put (verify-and-rewrite).
                last_error = exc
                with self._lock:
                    self.stats["store_write_retries"] += 1
                time.sleep(0.01)
        if profile_id is None:
            self._record_failure(
                job, f"store write failed after 3 attempts: {last_error}"
            )
            return
        try:
            self.ingest_stored(profile_id, profile)
            self._replicate(self.store.entry(profile_id), profile)
        except (StoreError, ServeError):
            pass  # the job's profile is durable; sketches/replicas heal
        with self._lock:
            self.breaker.record_success(job.workload)
            self._finish_locked(job, "done", profile_id=profile_id)

    def _record_failure(self, job: Job, message: str) -> None:
        """A clean failure: charge the breaker, retry or give up."""
        with self._lock:
            self.breaker.record_failure(job.workload)
            if not self._stopping and self.retry.should_retry(job.attempts):
                self.stats["retries"] += 1
                job.status = "queued"
                job.error = None
                self._retry_at[job.id] = time.monotonic() + self.retry.delay(
                    job.attempts
                )
                return
            self._finish_locked(job, "error", error=message)

    def _finish_locked(
        self,
        job: Job,
        status: str,
        *,
        error: Optional[str] = None,
        profile_id: Optional[str] = None,
    ) -> None:
        """Make ``job`` terminal: the one finish path (lock held).

        Stamps ``finished_at`` and logs the finish in the job table,
        which wakes every ``GET /jobs?since=`` long-poll, so the gateway
        hears of it at once, and applies retention.
        """
        job.status = status
        job.error = error
        job.profile_id = profile_id
        job.finished_at = time.time()
        self._jobs.finish(job.id, job.finished_at)

    # -- pool-break incident handling ------------------------------------

    def _pool_incident(self) -> List[str]:
        """Respawn the pool; returns the orphaned in-flight job ids.

        Called with the lock held. Clearing ``_inflight`` first is what
        makes requeues exactly-once: every other broken future's
        callback now fails the orphan-guard identity check and returns
        without acting.
        """
        survivors = list(self._inflight)
        self._inflight.clear()
        self._deadlines.clear()
        old_pool = self._pool
        self._pool = _new_pool(self.workers)
        self.stats["pool_respawns"] += 1
        if old_pool is not None:
            threading.Thread(
                target=_dispose_pool, args=(old_pool,), daemon=True
            ).start()
        return survivors

    def _requeue_after_incident(self, job: Job, note: str) -> None:
        """Requeue a pool-break victim (lock held), capped per job."""
        job.crash_requeues += 1
        if job.crash_requeues > _MAX_CRASH_REQUEUES:
            self._finish_locked(
                job,
                "error",
                error=f"gave up after {job.crash_requeues} pool-break requeues: {note}",
            )
            return
        self.stats["requeues"] += 1
        job.status = "queued"
        job.error = None
        self._queue.put(job.id)

    def _release_slots(self, n: int) -> None:
        for _ in range(n):
            self._slots.release()


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """A forked worker pool whose workers exit when this process dies.

    A forked worker holds every descriptor of the serve process, listening
    sockets and the WAL included. Orphaned by a SIGKILL, it would block on
    its call queue forever and keep the port bound, so each worker watches
    for its parent to change (:func:`_exit_with_parent`). The start method
    is named because that watch needs this process to be each worker's
    parent, which a fork server would not be.
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )


def _exit_with_parent(creator: int) -> None:
    """Pool worker initializer: exit once ``os.getppid()`` no longer names
    ``creator``, the process that made the pool."""

    def watch() -> None:
        while os.getppid() == creator:
            time.sleep(_ORPHAN_CHECK_S)
        os._exit(0)

    threading.Thread(target=watch, name="repro-pool-parent-watch", daemon=True).start()


def _dispose_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a broken/hung pool's workers and reap it, off-thread."""
    try:
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 — already-dead workers
                pass
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # noqa: BLE001 — disposal must never propagate
        pass


def _routes(daemon: ProfileDaemon) -> Routes:
    """The daemon's HTTP API (endpoint list in the module docstring)."""
    store = daemon.store

    def profiles(request: Request) -> Dict:
        entries = store.find(
            workload=request.query.get("workload"),
            profiler=request.query.get("profiler"),
            config_hash=request.query.get("config_hash"),
            tree_hash=request.query.get("tree_hash"),
        )
        limit, offset = page_params(request.query)
        return {
            "profiles": paginate(entries, limit, offset),
            "total": len(entries),
            "limit": limit,
            "offset": offset,
        }

    def diff(request: Request) -> Dict:
        query = request.query
        if "a" not in query or "b" not in query:
            raise ServeError("diff needs ?a=<id>&b=<id>")
        return {"diff": diff_stored(store, query["a"], query["b"]).to_dict()}

    def shards(request: Request) -> Dict:
        if daemon.router is None:
            raise ServeError("this daemon is not part of a shard plane")
        return daemon.router.describe()

    def by_id(endpoint: str, view):
        def handler(request: Request) -> Dict:
            if "id" not in request.query:
                raise ServeError(f"{endpoint} needs ?id=<profile_id>")
            return view(daemon, request.query["id"])

        return handler

    def merge(request: Request):
        body = request.json()
        ids = body.get("ids")
        if ids is None:
            # Sketch-backed merge view of an index slice: the combined
            # per-line statistics without replaying the constituent
            # profiles (no new profile is stored).
            return _sketch(
                daemon,
                {
                    k: body[k]
                    for k in ("workload", "profiler", "config_hash")
                    if body.get(k) is not None
                },
            )
        if not isinstance(ids, list) or len(ids) < 2:
            raise ServeError("merge needs {'ids': [<id>, <id>, ...]}")
        merged_id, merged = merge_stored(store, ids)
        return 201, {"id": merged_id, "profile": merged.to_dict()}

    def jobs(request: Request) -> Dict:
        query = request.query
        if "since" not in query:
            # Unpaged: the callers that list jobs read the whole table.
            return {"jobs": [j.to_dict() for j in daemon.jobs()]}
        try:
            since, wait_s = int(query["since"]), float(query.get("wait", 0))
        except ValueError as exc:
            raise ServeError(f"since/wait must be numbers: {exc}") from None
        if since < 0 or not wait_s >= 0:
            raise ServeError("since/wait must be non-negative")
        return daemon.changes(since, query.get("boot", ""), wait_s)

    def replicate(request: Request):
        body = request.json()
        entry = body.get("entry")
        profile = body.get("profile")
        if not isinstance(entry, dict) or not isinstance(profile, dict):
            raise ServeError("replicate needs {'entry': {...}, 'profile': {...}}")
        return 201, daemon.accept_replica(entry, profile, epoch=body.get("epoch"))

    return {
        ("GET", "health"): lambda request: daemon.health(),
        ("POST", "jobs"): lambda request: (
            202,
            {"job": daemon.submit(request.json()).to_dict()},
        ),
        ("GET", "jobs"): jobs,
        ("GET", "jobs", "*"): lambda request: {
            "job": daemon.job(request.parts[1]).to_dict()
        },
        ("GET", "profiles"): profiles,
        ("GET", "profiles", "*"): lambda request: _get_profile(
            daemon, request.parts[1], request.query
        ),
        ("GET", "diff"): diff,
        ("GET", "trend"): lambda request: _trend(daemon, request.query),
        ("GET", "sketch"): lambda request: _sketch(daemon, request.query),
        ("GET", "shards"): shards,
        ("GET", "crossflow"): by_id("crossflow", _crossflow),
        ("GET", "contention"): by_id("contention", _contention),
        ("POST", "merge"): merge,
        ("POST", "replicate"): replicate,
    }


def _trend(daemon: ProfileDaemon, query: Dict) -> Dict:
    """Trend answers: streaming sketch by default, ``?exact=1`` replays.

    A ``tree_hash`` filter also forces the exact path — sketches are
    keyed on ``(workload, profiler, config_hash)`` only.
    """
    limit, offset = page_params(query)
    exact = query.get("exact") in ("1", "true", "yes") or "tree_hash" in query
    if exact:
        points = trend(
            daemon.store,
            workload=query.get("workload"),
            profiler=query.get("profiler"),
            config_hash=query.get("config_hash"),
            tree_hash=query.get("tree_hash"),
        )
        return {
            "trend": paginate(points, limit, offset),
            "regressions": find_regressions(points),
            "source": "exact",
            "total": len(points),
            "limit": limit,
            "offset": offset,
        }
    with daemon._agg_lock:
        sketch = daemon.aggregator.sketch(
            workload=query.get("workload"),
            profiler=query.get("profiler"),
            config_hash=query.get("config_hash"),
        )
        if sketch is None:
            return {
                "trend": [],
                "regressions": [],
                "source": "sketch",
                "total": 0,
                "limit": limit,
                "offset": offset,
            }
        return {
            "trend": sketch.trend_points(limit, offset),
            "regressions": sketch.regressions(),
            "summary": sketch.summary(),
            "source": "sketch",
            "total": len(sketch.recent),
            "limit": limit,
            "offset": offset,
        }


def _sketch(daemon: ProfileDaemon, query: Dict) -> Dict:
    """Streaming per-line statistics for one index slice."""
    want_state = query.get("state") in ("1", "true", "yes")
    try:
        top = int(query.get("top", 50))
    except ValueError as exc:
        raise ServeError(f"top must be an integer: {exc}") from None
    with daemon._agg_lock:
        if want_state:
            return {"state": daemon.aggregator.to_dict()}
        sketch = daemon.aggregator.sketch(
            workload=query.get("workload"),
            profiler=query.get("profiler"),
            config_hash=query.get("config_hash"),
        )
        if sketch is None:
            return {"summary": None, "lines": [], "keys": daemon.aggregator.keys()}
        return {
            "summary": sketch.summary(),
            "lines": sketch.line_table(top),
            "regressions": sketch.regressions(),
            "keys": daemon.aggregator.keys(),
        }


def _crossflow(daemon: ProfileDaemon, profile_id: str) -> Dict:
    """Join a stored profile's crossing counters with the boundary
    lints of its workload's source, rebuilt from the registry (the
    source templates keep line numbers stable across scales)."""
    from repro.analysis.crossflow import analyze_crossflow
    from repro.workloads import get_workload

    store = daemon.store
    profile = store.get(profile_id)
    entry = store.entry(profile_id)
    workload_name = entry.get("workload") or ""
    if not workload_name:
        raise ServeError(
            f"profile {profile_id} carries no workload metadata "
            "(merged profiles are not supported)"
        )
    workload = get_workload(workload_name)
    findings = analyze_crossflow(workload.source(1.0), profile, f"{workload_name}.py")
    return {
        "id": entry["id"],
        "workload": workload_name,
        "crossings": {
            "total": profile.total_crossings,
            "overhead_s": profile.total_crossing_overhead_s,
            "bytes_to_native": profile.total_bytes_to_native,
            "bytes_to_python": profile.total_bytes_to_python,
        },
        "findings": [f.to_dict() for f in findings],
    }


def _contention(daemon: ProfileDaemon, profile_id: str) -> Dict:
    """A stored profile's lock-contention view: totals, the per-line
    blocked-time table, and the who-blocks-whom edge list."""
    store = daemon.store
    profile = store.get(profile_id)
    entry = store.entry(profile_id)
    return {
        "id": entry["id"],
        "locks": {
            "blocked_s": profile.total_lock_blocked_s,
            "contentions": profile.total_lock_contentions,
            "acquisitions": profile.total_lock_acquisitions,
        },
        "lines": [
            {
                "filename": line.filename,
                "lineno": line.lineno,
                "blocked_s": line.lock_blocked_s,
                "contentions": line.lock_contentions,
                "acquisitions": line.lock_acquisitions,
            }
            for line in sorted(profile.lines, key=lambda l: -l.lock_blocked_s)
            if line.lock_contentions > 0 or line.lock_acquisitions > 0
        ],
        "edges": [edge.to_dict() for edge in profile.lock_edges],
    }


def _get_profile(daemon: ProfileDaemon, profile_id: str, query: Dict):
    """The stored profile as JSON, or as the HTML report (a ``str``)."""
    store = daemon.store
    profile = store.get(profile_id)
    fmt = query.get("format", "json")
    if fmt == "html":
        return render_html(profile, title=profile_id[:12])
    if fmt == "json":
        entry = store.entry(profile_id)
        return {"id": entry["id"], "meta": entry, "profile": json.loads(render_json(profile))}
    raise ServeError(f"unknown format {fmt!r}; use json or html")
