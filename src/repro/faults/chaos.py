"""Seeded end-to-end chaos harness for the profiling service.

:func:`run_chaos` drives a randomized-but-replayable fault schedule
through a *real* daemon run: it starts a :class:`ProfileDaemon` on an
ephemeral port, submits concurrent jobs over HTTP — each carrying its
own deterministic :class:`~repro.faults.FaultSpec` (worker crashes and
hard exits, runtime signal drops/coalesces/delays, clock jumps,
allocator faults) — while the store tears its first writes, then checks
the self-healing contract:

* every submitted job completes **exactly once** (status ``done``, a
  profile id, no lost or duplicated work);
* every stored profile is flagged ``degraded`` with *accurate* fault
  counters (verified by re-executing the job's deterministic payload
  in-process and comparing counter-for-counter) and satisfies the
  bounded invariants (:meth:`ProfileData.invariant_violations` empty);
* the injected faults actually fired (pool breaks ≥ hard crashers,
  retries ≥ exception crashers, torn writes as scheduled);
* deleting ``index.json`` and ``sketches.json`` and reopening the store
  rebuilds the index cleanly from the blobs (same profile ids), and a
  daemon booted over it ingests every stored profile into the sketches.

The same seed replays the same chaos run; ``python -m repro chaos`` and
``tests/test_chaos.py`` both call this function.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.injector import FaultInjector, FaultSpec

#: Cheap workloads the harness cycles through. Distinct names per job
#: keep the circuit breaker (keyed by workload) out of the way of the
#: exactly-once check; a dedicated breaker test trips it on purpose.
CHAOS_WORKLOADS = (
    "pprint",
    "fannkuch",
    "mdp",
    "raytrace",
    "balanced",
    "leaky",
    "docutils",
    "sympy",
)


class _Report:
    """What every chaos report shares: a verdict and a JSON form."""

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> Dict:
        return {"ok": self.ok, **dataclasses.asdict(self)}


@dataclass
class ChaosReport(_Report):
    """Everything :func:`run_chaos` measured and asserted."""

    seed: int
    jobs: List[Dict] = field(default_factory=list)
    healing: Dict[str, int] = field(default_factory=dict)
    store_faults: Dict[str, int] = field(default_factory=dict)
    profiles_stored: int = 0
    profiles_after_rebuild: int = 0
    recovery: Dict[str, int] = field(default_factory=dict)
    #: Exactly-once / fired-faults / rebuild failures (empty when ok).
    problems: List[str] = field(default_factory=list)
    #: Bounded-invariant violations across all stored profiles.
    violations: List[str] = field(default_factory=list)
    #: Jobs whose stored fault counters differ from a deterministic
    #: in-process replay of the same payload.
    counter_mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.problems or self.violations or self.counter_mismatches)

    def summary(self) -> str:
        done = sum(1 for j in self.jobs if j["status"] == "done")
        lines = [
            f"chaos seed {self.seed}: {'OK' if self.ok else 'FAILED'} — "
            f"{done}/{len(self.jobs)} jobs done exactly once",
            f"  healing: {self.healing}",
            f"  store faults: {self.store_faults}; "
            f"profiles {self.profiles_stored} stored, "
            f"{self.profiles_after_rebuild} after index rebuild "
            f"(recovery {self.recovery})",
        ]
        for name in ("problems", "violations", "counter_mismatches"):
            for item in getattr(self, name):
                lines.append(f"  {name[:-1]}: {item}")
        return "\n".join(lines)


def build_fault_schedules(
    seed: int,
    jobs: int,
    *,
    exit_crashers: int = 2,
    exception_crashers: int = 2,
    signal_drop_rate: float = 0.1,
) -> List[FaultSpec]:
    """The per-job fault schedules for one chaos run (deterministic).

    Every job gets the runtime fault families (drop rate as given, plus
    light coalesce/delay/clock/allocator rates); the first
    ``exit_crashers`` jobs hard-exit their worker on attempt 1 (breaking
    the pool), the next ``exception_crashers`` raise instead.
    """
    specs: List[FaultSpec] = []
    for i in range(jobs):
        crash_attempts = 0
        crash_mode = "exception"
        if i < exit_crashers:
            crash_attempts, crash_mode = 1, "exit"
        elif i < exit_crashers + exception_crashers:
            crash_attempts, crash_mode = 1, "exception"
        specs.append(
            FaultSpec(
                seed=seed * 1000 + i,  # unique stream per job
                signal_drop_rate=signal_drop_rate,
                signal_coalesce_rate=0.05,
                signal_delay_rate=0.05,
                clock_jump_rate=0.01,
                clock_jump_s=0.02,
                enomem_rate=0.02,
                shim_reentrancy_rate=0.02,
                crash_attempts=crash_attempts,
                crash_mode=crash_mode,
            )
        )
    return specs


def run_chaos(
    seed: int = 0,
    *,
    store_root: str,
    jobs: int = 8,
    workers: int = 2,
    exit_crashers: int = 2,
    exception_crashers: int = 2,
    torn_writes: int = 2,
    signal_drop_rate: float = 0.1,
    scale: float = 0.3,
    job_timeout_s: float = 60.0,
    wait_s: float = 180.0,
    verify_counters: bool = True,
) -> ChaosReport:
    """One seeded chaos run against a live daemon (see module docstring).

    The defaults match the acceptance bar: 8 concurrent jobs, 4 worker
    crashes (2 hard exits + 2 exceptions), 2 torn store writes, and a
    10 % signal-drop rate on every job.
    """
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ProfileDaemon
    from repro.serve.healing import RetryPolicy
    from repro.serve.jobs import execute_job
    from repro.serve.store import ProfileStore

    report = ChaosReport(seed=seed)
    specs = build_fault_schedules(
        seed,
        jobs,
        exit_crashers=exit_crashers,
        exception_crashers=exception_crashers,
        signal_drop_rate=signal_drop_rate,
    )
    store = ProfileStore(store_root)
    store.faults = FaultInjector(FaultSpec(seed=seed, torn_writes=torn_writes))
    daemon = ProfileDaemon(
        store,
        workers=workers,
        job_timeout_s=job_timeout_s,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.02, max_delay_s=0.2, seed=seed),
    )
    daemon.start()
    try:
        client = ServeClient(daemon.url)
        workload_cycle = itertools.cycle(CHAOS_WORKLOADS)
        submitted: List[Dict] = [
            client.submit(
                next(workload_cycle),
                scale=scale,
                faults=spec.to_dict(),
            )
            for spec in specs
        ]
        # -- exactly-once: every job done, with a stored profile --------
        final, done_profiles = _check_done(report.problems, client, submitted, wait_s)
        report.healing = client.health()["healing"]
        for accepted in submitted:
            job = final.get(accepted["id"])
            if job is None:
                continue
            report.jobs.append(
                {
                    "id": job["id"],
                    "workload": job["workload"],
                    "status": job["status"],
                    "attempts": job["attempts"],
                    "crash_requeues": job["crash_requeues"],
                    "profile_id": job["profile_id"],
                    "error": job["error"],
                }
            )
        if len(set(done_profiles)) != len(done_profiles):
            report.problems.append(
                "duplicated work: two jobs share a stored profile id "
                "(distinct fault seeds must yield distinct profiles)"
            )

        # -- degraded profiles: flags, counters, bounded invariants ------
        for entry in report.jobs:
            if not entry["profile_id"]:
                continue
            profile = store.get(entry["profile_id"])
            if not profile.degraded:
                report.problems.append(
                    f"{entry['id']} profile {entry['profile_id'][:12]} "
                    f"not flagged degraded"
                )
            for name, count in profile.fault_counters.items():
                if count < 0:
                    report.violations.append(
                        f"{entry['id']} fault counter {name} negative: {count}"
                    )
            report.violations.extend(
                f"{entry['id']}: {violation}"
                for violation in profile.invariant_violations()
            )
            if verify_counters:
                mismatch = _replay_counters(
                    execute_job, final[entry["id"]], profile.fault_counters
                )
                if mismatch:
                    report.counter_mismatches.append(f"{entry['id']}: {mismatch}")

        # -- the faults actually fired -----------------------------------
        report.store_faults = store.faults.snapshot()
        if exit_crashers and report.healing.get("pool_breaks", 0) < 1:
            report.problems.append("no pool break despite scheduled hard exits")
        if exit_crashers and report.healing.get("requeues", 0) < exit_crashers:
            report.problems.append(
                f"expected >= {exit_crashers} pool-break requeues, saw "
                f"{report.healing.get('requeues', 0)}"
            )
        if exception_crashers and report.healing.get("retries", 0) < exception_crashers:
            report.problems.append(
                f"expected >= {exception_crashers} retries, saw "
                f"{report.healing.get('retries', 0)}"
            )
        if report.store_faults.get("torn_writes", 0) != torn_writes:
            report.problems.append(
                f"expected {torn_writes} torn writes, injected "
                f"{report.store_faults.get('torn_writes', 0)}"
            )
        report.profiles_stored = len(store)
    finally:
        daemon.stop()

    # -- crash-safe store: the index and the sketches are derived state ----
    before = sorted(entry["id"] for entry in store.entries())
    store.index_path.unlink()
    (store.root / "sketches.json").unlink(missing_ok=True)
    reopened = ProfileStore(store_root)
    report.recovery = reopened.last_recovery  # opening the store heals it
    after = sorted(entry["id"] for entry in reopened.entries())
    report.profiles_after_rebuild = len(after)
    if before != after:
        report.problems.append(
            f"index rebuild lost profiles: {len(before)} before, "
            f"{len(after)} after"
        )
    unmerged = sum(1 for entry in reopened.entries() if not entry.get("parents"))
    rebooted = ProfileDaemon(reopened, workers=1)
    rebooted.start()
    rebooted.stop()
    if rebooted.aggregator.ingested != unmerged:
        report.problems.append(
            f"boot ingested {rebooted.aggregator.ingested} of {unmerged} "
            "stored profiles into the sketches"
        )
    return report


def _wait_for(problems: List[str], what: str, probe: Callable, wait_s: float):
    """Poll ``probe()`` until it returns something truthy; return that.

    On timeout, records which wait ran out in ``problems`` and returns
    ``None``.
    """
    deadline = time.monotonic() + wait_s
    while True:
        result = probe()
        if result:
            return result
        if time.monotonic() >= deadline:
            problems.append(f"timed out after {wait_s:.0f}s waiting for {what}")
            return None
        time.sleep(0.05)


def _check_done(
    problems: List[str], client, accepted: List[Dict], wait_s: float
) -> Tuple[Dict, List[str]]:
    """Wait for every accepted job to end; check each ended ``done``.

    A job missing from the final listing, ended otherwise, or without a
    profile id is a problem, and so is a listing of another length.
    Returns the listing by job id and the profile ids of the jobs that
    passed, in ``accepted`` order.
    """
    from repro.serve.jobs import TERMINAL

    def ended():
        statuses = {job["id"]: job["status"] for job in client.jobs()}
        return all(statuses.get(job["id"]) in TERMINAL for job in accepted)

    _wait_for(problems, "every job to end", ended, wait_s)
    final = {job["id"]: job for job in client.jobs()}
    if len(final) != len(accepted):
        problems.append(f"{len(accepted)} jobs accepted, {len(final)} listed")
    profile_ids = []
    for job in accepted:
        record = final.get(job["id"])
        if record is None:
            problems.append(f"{job['id']} vanished from the ledger")
        elif record["status"] != "done":
            problems.append(
                f"{job['id']} ({job['workload']}) ended "
                f"{record['status']}: {record.get('error')}"
            )
        elif not record["profile_id"]:
            problems.append(f"{job['id']} done but has no profile id")
        else:
            profile_ids.append(record["profile_id"])
    return final, profile_ids


def _wait_to_kill(report, client, kill_after: int, wait_s: float, ready=None) -> bool:
    """Wait for ``kill_after`` jobs done (and ``ready(ledger)``) before a
    kill; False on a timeout. A kill after every job finished proves
    nothing about work in flight, so that is a problem."""

    def kill_ready():
        ledger = {job["id"]: job for job in client.jobs()}
        done = [job for job in ledger.values() if job["status"] == "done"]
        if len(done) >= kill_after and (ready is None or ready(ledger)):
            return done

    done = _wait_for(
        report.problems, f"{kill_after} completions before the kill",
        kill_ready, wait_s,
    )
    if done is None:
        return False
    report.done_before_kill = len(done)
    if report.done_before_kill == report.submitted:
        report.problems.append(
            f"all {report.submitted} jobs finished before the kill: "
            "no work was in flight"
        )
    return True


def _check_readable(problems: List[str], client, profile_ids, when: str) -> int:
    """Read back each stored profile; returns how many read.

    A profile that does not read back is a problem, noted with ``when``.
    """
    read = 0
    for profile_id in dict.fromkeys(profile_ids):
        try:
            client.profile(profile_id)
            read += 1
        except Exception as exc:  # noqa: BLE001 — recorded, not raised
            problems.append(f"profile {profile_id[:12]} unreadable {when}: {exc}")
    return read


@dataclass
class ShardChaosReport(_Report):
    """Everything :func:`run_shard_chaos` measured and asserted."""

    seed: int
    shards: int
    submitted: int = 0
    done: int = 0
    killed_shard: str = ""
    done_before_kill: int = 0
    redispatched: int = 0
    #: The routed key whose primary shard was killed.
    victim_key: Dict[str, str] = field(default_factory=dict)
    #: Degraded routed reads, each comparing sketch vs exact profile ids.
    degraded_reads: List[Dict] = field(default_factory=list)
    revived: bool = False
    problems: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"shard chaos seed {self.seed}: {'OK' if self.ok else 'FAILED'} — "
            f"{self.done}/{self.submitted} jobs done across {self.shards} shards "
            f"with {self.killed_shard or '<none>'} killed after "
            f"{self.done_before_kill} completions ({self.redispatched} redispatched)",
        ]
        for read in self.degraded_reads:
            lines.append(
                f"  degraded read {read['endpoint']} -> {read['shard']} "
                f"(degraded={read['degraded']}, ids={len(read['sketch_ids'])})"
            )
        for item in self.problems:
            lines.append(f"  problem: {item}")
        return "\n".join(lines)


#: The workloads of a kill harness's heavy tail: the burst's last jobs run
#: 40x heavier, and their work grows with scale (``balanced``'s and
#: ``leaky``'s stays at ~3 ms), so work is still in flight at the kill.
_HEAVY_TAIL = ("pprint", "fannkuch")


def kill_burst(jobs: int, scale: float) -> List[Tuple[str, float]]:
    """``(workload, scale)`` per job of a shard- or gateway-kill burst: a
    cycle of :data:`CHAOS_WORKLOADS`, then the heavy tail. Scale steps up
    with each repeat of a workload, so every job's profile is distinct."""
    cycle = itertools.cycle(CHAOS_WORKLOADS)
    burst = []
    for i in range(jobs):
        heavy = i >= jobs - len(_HEAVY_TAIL)
        workload = _HEAVY_TAIL[i - jobs] if heavy else next(cycle)
        repeat = 1.0 + 0.25 * (i // len(CHAOS_WORKLOADS))
        burst.append((workload, scale * repeat * (40.0 if heavy else 1.0)))
    return burst


def run_shard_chaos(
    seed: int = 0,
    *,
    root: str,
    shards: int = 3,
    jobs: int = 9,
    workers: int = 1,
    kill_after: int = 3,
    scale: float = 0.05,
    wait_s: float = 240.0,
    revive: bool = True,
) -> ShardChaosReport:
    """Kill a shard mid-run; prove no accepted job is lost and reads stay correct.

    Boots a :class:`~repro.serve.shard.ShardPlane` behind a
    :class:`~repro.serve.frontend.ServeFrontend` gateway, submits ``jobs``
    jobs, and — once ``kill_after`` of them (including one whose key's
    *primary* is the chosen victim) have completed — kills the victim
    shard abruptly. The last two jobs are 40x heavier, so work is still in
    flight at the kill; a kill after every job finished is a problem, not
    a pass. The plane must then deliver the scale-out contract:

    * every accepted job still finishes ``done`` with a profile id (the
      gateway ledger re-dispatches the dead shard's work to each key's
      next live owner; content addressing keeps storage exactly-once);
    * every stored profile remains fetchable through the gateway with
      one shard dead (replica copies serve the reads);
    * a routed ``/trend`` for the victim's key answers from the replica
      with ``degraded=true``, and its sketch-path profile ids match the
      exact-path replay ids — degraded but *correct*;
    * after :meth:`ShardPlane.revive`, the gateway's poller marks the
      shard back up and the same read is no longer degraded.
    """
    import random

    from repro.serve.client import ServeClient
    from repro.serve.frontend import ServeFrontend
    from repro.serve.shard import ShardPlane

    if jobs < kill_after + len(_HEAVY_TAIL):
        raise ValueError(
            f"need jobs >= kill_after + {len(_HEAVY_TAIL)}: the heavy tail "
            "must still be in flight at the kill"
        )
    report = ShardChaosReport(seed=seed, shards=shards)
    plane = ShardPlane(root, shards=shards, workers=workers)
    router = plane.start()
    gateway = ServeFrontend(router, poll_interval_s=0.1)
    gateway.start()
    try:
        client = ServeClient(gateway.url)
        rng = random.Random(seed)
        accepted = [
            client.submit(workload, mode="cpu", scale=job_scale)
            for workload, job_scale in kill_burst(jobs, scale)
        ]
        report.submitted = len(accepted)

        # The victim is the *primary* shard of one submitted key (picked
        # by the seed), so the degraded-read check below is guaranteed to
        # exercise a replica failover, not an unaffected shard. The target
        # is a light job: the kill waits for it to finish.
        target = rng.choice(accepted[: -len(_HEAVY_TAIL)])
        victim, _ = router.route(target["workload"], target["config_hash"])
        report.killed_shard = victim
        report.victim_key = {
            "workload": target["workload"],
            "config_hash": target["config_hash"],
        }

        # Let the plane make progress — including the victim key's job —
        # then kill the victim while the rest is still in flight.
        if not _wait_to_kill(
            report, client, kill_after, wait_s,
            ready=lambda ledger: ledger[target["id"]]["status"] == "done",
        ):
            return report
        plane.kill(victim)

        # Every accepted job must still finish exactly once.
        ledger, profile_ids = _check_done(report.problems, client, accepted, wait_s)
        report.done = sum(1 for j in ledger.values() if j["status"] == "done")
        report.redispatched = gateway.stats["redispatched"]

        # With one shard dead, every stored profile must still be served
        # (replica copies / failover re-runs — content addressing dedupes).
        _check_readable(report.problems, client, profile_ids, f"with {victim} down")

        # The victim key's routed read: degraded, from the replica, and
        # sketch-path ids identical to an exact replay of the history.
        expected_ids = {
            j["profile_id"]
            for j in ledger.values()
            if j["status"] == "done"
            and j["workload"] == target["workload"]
            and j["config_hash"] == target["config_hash"]
            and j["profile_id"]
        }
        read = _routed_trend_check(client, report.victim_key, expected_ids)
        report.degraded_reads.append(read)
        if not read["degraded"]:
            report.problems.append(
                f"read of {target['workload']} routed to {read['shard']} "
                "was not flagged degraded with its primary down"
            )
        report.problems.extend(read.pop("problems"))

        # Revival: the poller probes the shard back up and the same key
        # routes to its primary again, undegraded.
        if revive:
            plane.revive(victim)
            if not _wait_for(
                report.problems, f"{victim} to be marked back up after revive",
                lambda: victim in client.health()["shards"]["live"],
                min(wait_s, 30.0),
            ):
                return report
            report.revived = True
            healthy = _routed_trend_check(client, report.victim_key, expected_ids)
            report.degraded_reads.append(healthy)
            if healthy["degraded"] or healthy["shard"] != victim:
                report.problems.append(
                    f"post-revive read went to {healthy['shard']} "
                    f"(degraded={healthy['degraded']}), expected healthy {victim}"
                )
            report.problems.extend(healthy.pop("problems"))
    finally:
        gateway.stop()
        plane.stop()
    return report


def _routed_trend_check(client, key: Dict[str, str], expected_ids) -> Dict:
    """One routed /trend read via the gateway, sketch vs exact compared."""
    problems: List[str] = []
    sketch = client.trend(**key)
    exact = client.trend(exact=1, **key)
    sketch_ids = {point["id"] for point in sketch["trend"]}
    exact_ids = {point["id"] for point in exact["trend"]}
    if sketch_ids != exact_ids:
        problems.append(
            f"sketch trend ids {sorted(sketch_ids)} != exact {sorted(exact_ids)}"
        )
    if expected_ids and sketch_ids != set(expected_ids):
        problems.append(
            f"trend ids {sorted(sketch_ids)} != done profiles "
            f"{sorted(expected_ids)} for the routed key"
        )
    return {
        "endpoint": "/trend",
        "shard": sketch.get("shard"),
        "degraded": bool(sketch.get("degraded")),
        "sketch_ids": sorted(sketch_ids),
        "exact_ids": sorted(exact_ids),
        "problems": problems,
    }


@dataclass
class GatewayChaosReport(_Report):
    """Everything :func:`run_gateway_chaos` measured and asserted."""

    seed: int
    shards: int
    submitted: int = 0
    done: int = 0
    done_before_kill: int = 0
    recovered: int = 0
    recovered_requeued: int = 0
    deduped_resubmit: bool = False
    unique_profiles: int = 0
    wal: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"gateway chaos seed {self.seed}: {'OK' if self.ok else 'FAILED'} — "
            f"gateway killed -9 after {self.done_before_kill}/{self.submitted} "
            f"completions; restart recovered {self.recovered} ledger records "
            f"({self.recovered_requeued} requeued), "
            f"{self.done} done, {self.unique_profiles} unique profiles",
        ]
        for item in self.problems:
            lines.append(f"  problem: {item}")
        return "\n".join(lines)


def run_gateway_chaos(
    seed: int = 0,
    *,
    root: str,
    shards: int = 2,
    jobs: int = 10,
    workers: int = 1,
    kill_after: int = 3,
    scale: float = 0.05,
    wait_s: float = 240.0,
) -> GatewayChaosReport:
    """kill -9 the WAL-backed gateway mid-burst; prove nothing is lost.

    Boots a shard plane behind a gateway whose acceptance ledger is
    backed by a :class:`~repro.serve.wal.WriteAheadLog`, submits ``jobs``
    keyed jobs, crash-stops the gateway (:meth:`ServeFrontend.kill` — no
    flush, no checkpoint, sockets severed) once ``kill_after`` have
    completed, then boots a *fresh* gateway over the same WAL and
    asserts the durability contract:

    * the recovered ledger contains **every** accepted job — zero loss;
    * every job still reaches ``done`` with a profile id, and distinct
      payloads yield distinct profiles (re-dispatched work was not
      double-stored: content addressing collapses re-runs);
    * resubmitting an original ``submit_key`` against the new gateway
      dedupes to the *same* gateway id instead of double-running.
    """
    from pathlib import Path

    from repro.serve.client import ServeClient
    from repro.serve.frontend import ServeFrontend
    from repro.serve.shard import ShardPlane

    report = GatewayChaosReport(seed=seed, shards=shards)
    wal_dir = str(Path(root) / "gateway-wal")
    plane = ShardPlane(root, shards=shards, workers=workers)
    router = plane.start()
    gateway = ServeFrontend(router, poll_interval_s=0.1, wal=wal_dir, plane=plane)
    gateway.start()
    live_gateway = gateway
    try:
        client = ServeClient(gateway.url)
        # Distinct profiles per job, so duplicated work would be visible.
        accepted = [
            client.submit(
                workload, mode="cpu", scale=job_scale, submit_key=f"ck-{seed}-{i}"
            )
            for i, (workload, job_scale) in enumerate(kill_burst(jobs, scale))
        ]
        report.submitted = len(accepted)

        # Let some jobs finish, keep the rest in flight, then crash-stop.
        if not _wait_to_kill(report, client, kill_after, wait_s):
            return report
        gateway.kill()

        # A fresh gateway over the same WAL must recover every record.
        gateway2 = ServeFrontend(
            router, poll_interval_s=0.1, wal=wal_dir, plane=plane
        )
        gateway2.start()
        live_gateway = gateway2
        report.recovered = gateway2.stats["recovered"]
        report.recovered_requeued = gateway2.stats["recovered_requeued"]
        report.wal = gateway2.wal.stats_dict()
        client = ServeClient(gateway2.url)
        ledger = {j["id"]: j for j in client.jobs()}
        for job in accepted:
            if job["id"] not in ledger:
                report.problems.append(
                    f"{job['id']} accepted before the kill but missing "
                    f"from the recovered ledger"
                )
        if report.recovered != len(accepted):
            report.problems.append(
                f"recovered {report.recovered} ledger records, "
                f"expected {len(accepted)}"
            )

        # Resubmitting an original key must dedupe, not double-run.
        redo = client.submit(
            accepted[0]["workload"],
            mode="cpu",
            scale=scale,
            submit_key=f"ck-{seed}-0",
        )
        report.deduped_resubmit = bool(redo.get("deduped"))
        if redo["id"] != accepted[0]["id"]:
            report.problems.append(
                f"resubmit of ck-{seed}-0 minted a new job {redo['id']} "
                f"instead of deduping to {accepted[0]['id']}"
            )

        # Every accepted job still completes exactly once.
        ledger, profile_ids = _check_done(report.problems, client, accepted, wait_s)
        report.done = sum(1 for j in ledger.values() if j["status"] == "done")
        report.unique_profiles = len(set(profile_ids))
        if report.unique_profiles != len(profile_ids):
            report.problems.append(
                "duplicated work: two distinct payloads share a stored "
                "profile id"
            )
        _check_readable(report.problems, client, profile_ids, "after recovery")
    finally:
        live_gateway.stop()
        plane.stop()
    return report


@dataclass
class ReshardChaosReport(_Report):
    """Everything :func:`run_reshard_chaos` measured and asserted."""

    seed: int
    shards_before: int
    shards_after: int = 0
    submitted: int = 0
    done: int = 0
    epoch_before: int = 0
    epoch_after: int = 0
    keys_total: int = 0
    keys_moved: int = 0
    entries_copied: int = 0
    reads_during_migration: int = 0
    problems: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"reshard chaos seed {self.seed}: {'OK' if self.ok else 'FAILED'} — "
            f"{self.shards_before} -> {self.shards_after} shards under load "
            f"(epoch {self.epoch_before} -> {self.epoch_after}), "
            f"{self.keys_moved}/{self.keys_total} keys moved, "
            f"{self.entries_copied} entries copied, "
            f"{self.reads_during_migration} reads served during migration, "
            f"{self.done}/{self.submitted} jobs done",
        ]
        for item in self.problems:
            lines.append(f"  problem: {item}")
        return "\n".join(lines)


def run_reshard_chaos(
    seed: int = 0,
    *,
    root: str,
    shards: int = 2,
    jobs: int = 8,
    workers: int = 1,
    warm: int = 2,
    scale: float = 0.05,
    wait_s: float = 240.0,
) -> ReshardChaosReport:
    """Grow the ring by one shard under load; prove every key migrates.

    Submits ``jobs`` jobs, waits for ``warm`` completions (so there is
    stored state to migrate) with the rest still in flight, then drives
    ``POST /reshard {"action": "add"}`` through the gateway and asserts
    the live-resharding contract:

    * reads of already-stored profiles succeed *throughout* the
      migration (old-or-new owners serve them);
    * the ring epoch advances exactly once and the migration finishes
      ``done`` with no keys left behind;
    * after the epoch flips, **every** stored key's new primary pair
      holds a copy (verified against each shard's own store);
    * every accepted job still completes with a profile id.
    """
    from repro.serve.client import ServeClient
    from repro.serve.frontend import ServeFrontend
    from repro.serve.router import shard_key
    from repro.serve.shard import ShardPlane

    from pathlib import Path

    report = ReshardChaosReport(seed=seed, shards_before=shards)
    plane = ShardPlane(root, shards=shards, workers=workers)
    router = plane.start()
    gateway = ServeFrontend(
        router, poll_interval_s=0.1, wal=str(Path(root) / "gateway-wal"), plane=plane
    )
    gateway.start()
    try:
        client = ServeClient(gateway.url)
        workload_cycle = itertools.cycle(CHAOS_WORKLOADS)
        accepted = [
            client.submit(
                next(workload_cycle),
                mode="cpu",
                scale=scale * (1.0 + 0.25 * (i // len(CHAOS_WORKLOADS))),
            )
            for i in range(jobs)
        ]
        report.submitted = len(accepted)
        report.epoch_before = router.epoch

        def warmed():
            done = [j for j in client.jobs() if j["status"] == "done" and j["profile_id"]]
            return done if len(done) >= warm else None

        warm_done = _wait_for(
            report.problems, f"{warm} completions before the reshard", warmed, wait_s
        )
        if warm_done is None:
            return report
        warm_ids = [j["profile_id"] for j in warm_done]

        client._request("/reshard", body={"action": "add"}, idempotent=False)

        # Reads must be served from old-or-new owners for the whole
        # migration window.
        def migrated():
            status = client._request("/reshard")
            report.reads_during_migration += _check_readable(
                report.problems, client, warm_ids,
                f"during migration ({status['state']})",
            )
            return status if status["state"] in ("done", "failed", "idle") else None

        status = _wait_for(report.problems, "the reshard to finish", migrated, wait_s)
        if status is None:
            return report
        if status["state"] != "done":
            report.problems.append(
                f"reshard ended {status['state']}: {status.get('error')}"
            )
        report.keys_total = status.get("keys_total", 0)
        report.keys_moved = status.get("keys_moved", 0)
        report.entries_copied = status.get("entries_copied", 0)
        report.epoch_after = router.epoch
        report.shards_after = len(router.ring.shards)
        if report.epoch_after != report.epoch_before + 1:
            report.problems.append(
                f"epoch {report.epoch_before} -> {report.epoch_after}, "
                f"expected exactly one bump"
            )
        if report.shards_after != shards + 1:
            report.problems.append(
                f"ring has {report.shards_after} shards after an add, "
                f"expected {shards + 1}"
            )
        if router.migrating:
            report.problems.append("router still migrating after reshard done")

        # Every accepted job still completes with a profile id.
        ledger, _ = _check_done(report.problems, client, accepted, wait_s)
        report.done = sum(1 for j in ledger.values() if j["status"] == "done")

        # Placement audit: in the new epoch, every stored key's primary
        # pair holds a copy (checked against each shard's own store).
        holdings = {
            name: {e["id"] for e in ServeClient(url).profiles(limit=0)}
            for name, url in plane.urls().items()
        }
        audited = {}
        for name, url in plane.urls().items():
            for entry in ServeClient(url).profiles(limit=0):
                audited[entry["id"]] = entry
        for profile_id, entry in audited.items():
            owners = router.ring.owners(
                shard_key(entry["workload"], entry["config_hash"])
            )[:2]
            for owner in owners:
                if profile_id not in holdings.get(owner, set()):
                    report.problems.append(
                        f"profile {profile_id[:12]} "
                        f"({entry['workload']}) missing from new owner "
                        f"{owner} after migration"
                    )
    finally:
        gateway.stop()
        plane.stop()
    return report


def _replay_counters(
    execute_job, job: Dict, stored_counters: Dict[str, int]
) -> Optional[str]:
    """Re-run the job's final attempt in-process; compare fault counters.

    The simulated runtime and the injector PRNG are both deterministic,
    so the stored counters must match a replay bit for bit (serve-side
    families — torn writes, crash/hang — never appear in profile
    counters; they are store/daemon accounting).
    """
    from repro.core.profile_data import ProfileData

    payload = {
        "workload": job["workload"],
        "profiler": job["profiler"],
        "mode": job["mode"],
        "scale": job["scale"],
        "config": job["config"],
        "faults": job["faults"],
        "attempt": job["attempts"],  # past the scheduled crashes
    }
    expected = ProfileData.from_json(execute_job(payload)).fault_counters
    if expected != stored_counters:
        return f"stored {stored_counters} != replayed {expected}"
    return None
