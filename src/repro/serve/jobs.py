"""Profiling jobs: the unit of work the daemon's worker pool executes.

A job is ``workload + profiler + config``; :attr:`Job.config_hash` is the
config half of the key that routes it and indexes its profile.
:class:`Job` is the one record both serve roles keep, the shard for the
job it runs and the gateway for the job it accepted, and :meth:`Job.to_dict`
its one public form: HTTP answers, WAL records and checkpoints.
:class:`JobTable` is where each role keeps its records: one submit-key
map and one finish log under one retention rule. :func:`execute_job` is the
worker-side entry point — a module-level function taking and returning
only picklable primitives, so it crosses the multiprocessing boundary:
the payload dict goes in, the finished profile's JSON text comes back,
and the daemon (the store's single writer) persists it.

Baseline profilers produce :class:`~repro.baselines.base.BaselineReport`
rather than :class:`~repro.core.profile_data.ProfileData`;
:func:`profile_from_baseline` adapts them so every job's result lands in
the same store and renders through the same backends (what the baseline
measured fills the columns it has; the rest stay zero).
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.config import ScaleneConfig
from repro.core.profile_data import FunctionReport, LineReport, ProfileData
from repro.errors import ServeError
from repro.serve.store import config_hash

#: Job states that never change again, on a shard and on the gateway.
TERMINAL = ("done", "error")
JOB_STATUSES = ("queued", "running") + TERMINAL

#: The fields a submission may carry: what a client posts, and what the
#: gateway posts to a shard.
SUBMISSION = ("workload", "profiler", "mode", "scale", "config", "faults", "timeout_s")

_job_counter = itertools.count(1)
_job_counter_lock = threading.Lock()


@dataclass
class Job:
    """One profiling job, on a shard (``queued`` → ``running`` →
    ``done``/``error``) or on the gateway (``accepted`` → ``dispatched``
    → ``done``/``error``). :attr:`timeline` holds the last wall-clock
    stamp of each stage reached: the shard's ``submitted``, ``started``
    and ``finished``, the gateway's ``accepted``, ``dispatched`` and
    ``terminal``."""

    id: str
    workload: str
    profiler: str = "scalene"
    mode: str = "full"
    scale: float = 1.0
    config: Optional[Dict] = None
    #: Optional :meth:`repro.faults.FaultSpec.to_dict` payload — the fault
    #: schedule the worker replays for this job (chaos testing).
    faults: Optional[Dict] = None
    #: Optional per-job wall-clock budget; the daemon's default applies
    #: when None.
    timeout_s: Optional[float] = None
    #: The config half of the routing key: the hash the store indexes the
    #: job's profile under, so the job routes to its profile's shard.
    config_hash: str = ""
    submit_key: Optional[str] = None
    status: str = "queued"
    profile_id: Optional[str] = None
    error: Optional[str] = None
    #: Times this job was handed to a worker (first run plus retries).
    attempts: int = 0
    #: Times this job was requeued because a pool-break incident (worker
    #: crash or hung-worker recycle) took its worker down mid-flight.
    crash_requeues: int = 0
    #: On the gateway: the shard the job is dispatched to, and its id there.
    shard: Optional[str] = None
    shard_job_id: Optional[str] = None
    timeline: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """The public form: every field, a stage not yet reached absent."""
        record = dict(self.__dict__)
        # Iterate a copy: a reader without the role's lock may run this
        # while the role stamps a stage.
        for stage, at in record.pop("timeline").copy().items():
            record[f"{stage}_at"] = at
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "Job":
        """The inverse of :meth:`to_dict`. It also reads the gateway's
        earlier record form, which kept the submission under ``payload``
        (``None`` once terminal) and a local ``dispatched_mono`` stamp."""
        fields = {**(record.get("payload") or {}), **record}
        job = cls(**{name: value for name, value in fields.items() if name in _FIELDS})
        job.timeline = {
            name[:-3]: at
            for name, at in fields.items()
            if name.endswith("_at") and at is not None
        }
        return job

    def submission(self) -> Dict:
        """The job as a submission payload (see :data:`SUBMISSION`)."""
        return {name: getattr(self, name) for name in SUBMISSION}

    def payload(self) -> Dict:
        """The picklable worker input."""
        return {**self.submission(), "attempt": self.attempts}


_FIELDS = frozenset(f.name for f in dataclasses.fields(Job)) - {"timeline"}


def pop_submit_key(payload: Dict) -> Tuple[Dict, Optional[str]]:
    """Split a submission into its job payload and its ``submit_key``.

    The key is the client's idempotency key: the job table dedupes on
    it, and it never reaches a shard or a worker.
    """
    if not isinstance(payload, dict) or "submit_key" not in payload:
        return payload, None
    payload = dict(payload)
    submit_key = payload.pop("submit_key")
    if not isinstance(submit_key, str) or not submit_key:
        raise ServeError("submit_key must be a non-empty string")
    return payload, submit_key


#: Terminal-record retention, the same on both roles: a record leaves
#: the shard's job table or the gateway's ledger this long after it
#: finished, or sooner once this many newer terminal records are kept.
TERMINAL_RETENTION_S = 3600.0
TERMINAL_RETENTION_MAX = 10000


class JobTable(Mapping):
    """One serve role's :class:`Job` records by id, their submit keys, one
    finish log.

    :meth:`finish` numbers each finish (the shard's change cursor)
    and wakes the waiters on :attr:`changed`. The log is in finish order,
    so retention evicts at its head, O(1) per eviction, at each finish and
    monitor tick (:meth:`evict`): records finished more than
    ``TERMINAL_RETENTION_S`` ago, then the oldest past
    ``TERMINAL_RETENTION_MAX``, never a queued or running one. A record's
    submit key leaves with it, and :attr:`floor` rises to its change, so a
    cursor below the floor knows it missed one.

    The caller holds ``lock``, the role's own lock, across every call:
    :attr:`changed` is a condition on it, and a :meth:`find` and the
    :meth:`add` it guards must be one critical section.
    """

    def __init__(self, lock) -> None:
        self.changed = threading.Condition(lock)
        self._records: Dict[str, Job] = {}
        #: submit key -> record id.
        self._keys: Dict[str, str] = {}
        #: ``(change, record id, finished at)``, oldest first.
        self._log: "deque[Tuple[int, str, float]]" = deque()
        #: The last change number given out, and the last one evicted.
        self.seq = 0
        self.floor = 0

    def __getitem__(self, record_id: str) -> Job:
        return self._records[record_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def values(self):
        return self._records.values()

    def find(self, submit_key: Optional[str]) -> Optional[Job]:
        """The record ``submit_key`` named, or ``None`` if it is new."""
        record_id = self._keys.get(submit_key)
        return None if record_id is None else self._records[record_id]

    def add(self, record: Job) -> None:
        self._records[record.id] = record
        if record.submit_key is not None:
            self._keys[record.submit_key] = record.id

    def finish(self, record_id: str, at: float) -> int:
        """Log that ``record_id`` finished at wall-clock ``at``, then apply
        retention as of ``at``; returns the number evicted."""
        self.seq += 1
        self._log.append((self.seq, record_id, at))
        self.changed.notify_all()
        return self.evict(at)

    def finished_since(self, since: int) -> Optional[List]:
        """The records finished after change ``since``, oldest first, or
        ``None`` when ``since`` is outside ``[floor, seq]``."""
        if not self.floor <= since <= self.seq:
            return None
        fresh = itertools.takewhile(
            lambda change: change[0] > since, reversed(self._log)
        )
        return [self._records[record_id] for _, record_id, _ in fresh][::-1]

    def evict(self, now: float) -> int:
        """Apply terminal-record retention as of ``now``; returns the count."""
        evicted = 0
        while self._log:
            seq, record_id, at = self._log[0]
            if (
                len(self._log) <= TERMINAL_RETENTION_MAX
                and now - at <= TERMINAL_RETENTION_S
            ):
                break
            self._log.popleft()
            key = self._records.pop(record_id).submit_key
            # Recovery can bring back an evicted record whose key a newer
            # record has since taken.
            if self._keys.get(key) == record_id:
                del self._keys[key]
            self.floor = seq
            evicted += 1
        return evicted


def new_job(payload: Dict, submit_key: Optional[str] = None) -> Job:
    """Validate a submission payload and build a queued :class:`Job`.

    Validation happens here, in the daemon process, so a bad submission
    fails the HTTP request synchronously instead of poisoning a worker.
    """
    from repro.baselines import profiler_names
    from repro.core.config import _MODES
    from repro.workloads import get_workload

    if not isinstance(payload, dict):
        raise ServeError("job payload must be a JSON object")
    unknown = set(payload) - set(SUBMISSION)
    if unknown:
        raise ServeError(f"unknown job fields: {sorted(unknown)}")
    workload = payload.get("workload")
    if not workload:
        raise ServeError("job payload needs a 'workload'")
    get_workload(workload)  # raises WorkloadError on unknown names
    profiler = payload.get("profiler", "scalene")
    if profiler != "scalene" and profiler not in profiler_names():
        raise ServeError(
            f"unknown profiler {profiler!r}; "
            f"use 'scalene' or one of {sorted(profiler_names())}"
        )
    mode = payload.get("mode", "full")
    if profiler == "scalene" and mode not in _MODES:
        raise ServeError(f"unknown Scalene mode {mode!r}; use one of {_MODES}")
    scale = payload.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or scale <= 0:
        raise ServeError(f"scale must be a positive number, got {scale!r}")
    scale = float(scale)
    config = payload.get("config")
    if config is not None:
        if not isinstance(config, dict):
            raise ServeError("config must be a JSON object of ScaleneConfig overrides")
        valid = {f.name for f in dataclasses.fields(ScaleneConfig)}
        bad = set(config) - valid
        if bad:
            raise ServeError(f"unknown config overrides: {sorted(bad)}")
    faults = payload.get("faults")
    if faults is not None:
        if not isinstance(faults, dict):
            raise ServeError("faults must be a JSON object (a FaultSpec payload)")
        from repro.faults import FaultSpec

        FaultSpec.from_dict(faults)  # raises FaultError on a bad schedule
    timeout_s = payload.get("timeout_s")
    if timeout_s is not None and (
        not isinstance(timeout_s, (int, float)) or timeout_s <= 0
    ):
        raise ServeError(f"timeout_s must be a positive number, got {timeout_s!r}")
    with _job_counter_lock:
        sequence = next(_job_counter)
    return Job(
        id=f"job-{sequence:06d}",
        workload=workload,
        profiler=profiler,
        mode=mode,
        scale=scale,
        config=config,
        faults=faults,
        timeout_s=float(timeout_s) if timeout_s is not None else None,
        config_hash=config_hash(
            {"mode": mode, "scale": scale, "overrides": config or {}}
        ),
        submit_key=submit_key,
        timeline={"submitted": time.time()},
    )


def execute_job(payload: Dict) -> str:
    """Run one profiling job; returns the profile as JSON text.

    Runs inside a worker process; everything in and out is picklable.

    When the payload carries a ``faults`` schedule, the worker replays it
    deterministically: a scheduled crash raises
    :class:`~repro.faults.InjectedCrash` (clean failure) or hard-exits
    the process (which breaks the whole pool — the daemon's
    respawn-and-requeue path), a scheduled hang sleeps past the job's
    deadline (the daemon's timeout path), and the remaining fault
    families are threaded through the simulated runtime via
    :meth:`~repro.runtime.process.SimProcess.install_faults`, producing a
    ``degraded`` profile with accurate fault counters.
    """
    import os
    import time as real_time

    from repro.baselines import make_profiler
    from repro.core import Scalene
    from repro.workloads import get_workload

    injector = None
    faults_payload = payload.get("faults")
    if faults_payload:
        from repro.faults import FaultInjector, FaultSpec, InjectedCrash

        injector = FaultInjector(FaultSpec.from_dict(faults_payload))
        attempt = payload.get("attempt", 1)
        crash = injector.worker_crash(attempt)
        if crash == "exception":
            raise InjectedCrash(
                f"injected worker crash (attempt {attempt} of "
                f"{injector.spec.crash_attempts} scheduled crashes)"
            )
        if crash == "exit":
            # A segfault analog: no exception crosses the pipe, the pool
            # breaks, and every in-flight future gets BrokenProcessPool.
            os._exit(17)
        hang_s = injector.worker_hang(attempt)
        if hang_s > 0.0:
            real_time.sleep(hang_s)  # hold the worker past its deadline

    workload = get_workload(payload["workload"])
    process = workload.make_process(payload.get("scale", 1.0))
    if injector is not None:
        process.install_faults(injector)
    profiler_name = payload.get("profiler", "scalene")
    if profiler_name == "scalene":
        overrides = payload.get("config") or {}
        config = ScaleneConfig(mode=payload.get("mode", "full"), **overrides)
        scalene = Scalene(process, config=config)
        scalene.start()
        process.run()
        profile = scalene.stop()
    else:
        profiler = make_profiler(profiler_name, process)
        profiler.start()
        process.run()
        report = profiler.stop()
        profile = profile_from_baseline(report, elapsed=process.clock.wall)
        if injector is not None:
            from repro.faults import apply_fault_counters

            apply_fault_counters(profile, injector)
    return profile.to_json()


def profile_from_baseline(report, elapsed: float) -> ProfileData:
    """Adapt a :class:`BaselineReport` into the common profile model.

    Baselines measure a subset of Scalene's dimensions: their attributed
    time goes in the Python column (none of them split Python from
    native), per-line memory fills the peak column, and everything they
    cannot see stays zero. The mode records which profiler produced it.
    """
    total_time = sum(report.line_times.values()) or sum(
        report.function_times.values()
    )
    pct = (lambda t: 100.0 * t / total_time if total_time > 0 else 0.0)
    lines = [
        LineReport(
            filename=filename,
            lineno=lineno,
            function="",
            source="",
            cpu_python_percent=pct(seconds),
            cpu_native_percent=0.0,
            cpu_system_percent=0.0,
            mem_avg_mb=0.0,
            mem_peak_mb=report.line_memory_mb.get((filename, lineno), 0.0),
            mem_python_percent=0.0,
            mem_activity_percent=0.0,
            timeline=[],
            copy_mb_s=0.0,
            gpu_percent=0.0,
            gpu_mem_peak_mb=0.0,
        )
        for (filename, lineno), seconds in sorted(report.line_times.items())
    ]
    functions = [
        FunctionReport(
            filename=filename,
            function=function,
            cpu_python_percent=pct(seconds),
            cpu_native_percent=0.0,
            cpu_system_percent=0.0,
            malloc_mb=0.0,
            copy_mb=0.0,
            gpu_percent=0.0,
        )
        for (filename, function), seconds in sorted(report.function_times.items())
    ]
    functions.sort(key=lambda r: r.cpu_total_percent, reverse=True)
    return ProfileData(
        mode=f"baseline:{report.profiler}",
        elapsed=elapsed,
        cpu_python_time=total_time,
        cpu_native_time=0.0,
        cpu_system_time=0.0,
        cpu_samples=report.total_samples,
        mem_samples=len(report.line_memory_mb),
        peak_footprint_mb=report.peak_memory_mb or 0.0,
        total_copy_mb=0.0,
        gpu_mean_utilization=0.0,
        gpu_mem_peak_mb=0.0,
        lines=lines,
        functions=functions,
        sample_log_bytes=report.log_bytes,
    )
