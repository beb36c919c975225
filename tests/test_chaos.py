"""Chaos acceptance tests: the self-healing daemon under injected faults.

The module-scoped chaos run is the subsystem's acceptance bar (the same
run ``python -m repro chaos`` performs): 8 concurrent jobs through a live
daemon while 2 workers hard-exit (breaking the pool), 2 raise, every job
drops/coalesces/delays timer signals and jumps clocks, and the store
tears its first 2 writes — after which every job must have completed
exactly once, every stored profile must be a *valid* degraded profile
with replay-accurate fault counters, and the store index must rebuild
cleanly from the blobs.

The remaining tests aim single fault families at the daemon's specific
healing mechanisms: retry-with-backoff, hung-worker timeout recycling,
the circuit breaker, and graceful drain.
"""

import time

import pytest

from repro.errors import ServeError
from repro.faults.chaos import (
    build_fault_schedules,
    kill_burst,
    run_chaos,
    run_gateway_chaos,
    run_reshard_chaos,
    run_shard_chaos,
)
from repro.serve.daemon import ProfileDaemon
from repro.serve.healing import OPEN, CircuitBreaker, RetryPolicy


@pytest.fixture(scope="module")
def chaos_report(tmp_path_factory):
    """One full chaos run (seed 1) shared by the acceptance assertions."""
    return run_chaos(
        seed=1,
        store_root=str(tmp_path_factory.mktemp("chaos-store")),
        jobs=8,
        workers=2,
        exit_crashers=2,
        exception_crashers=2,
        torn_writes=2,
        signal_drop_rate=0.1,
        scale=0.3,
    )


def test_chaos_run_is_clean(chaos_report):
    assert chaos_report.ok, chaos_report.summary()


def test_every_job_completes_exactly_once(chaos_report):
    assert len(chaos_report.jobs) == 8
    assert all(job["status"] == "done" for job in chaos_report.jobs)
    profile_ids = [job["profile_id"] for job in chaos_report.jobs]
    assert all(profile_ids)
    assert len(set(profile_ids)) == 8  # no duplicated work


def test_injected_faults_actually_fired(chaos_report):
    healing = chaos_report.healing
    assert healing["pool_breaks"] >= 1  # the hard exits broke the pool
    assert healing["requeues"] >= 2  # victims + survivors, exactly once each
    assert healing["retries"] >= 2  # the exception crashers came back
    assert chaos_report.store_faults["torn_writes"] == 2


def test_degraded_profiles_have_accurate_counters(chaos_report):
    # run_chaos re-executes each job's final attempt in-process and
    # compares fault counters bit for bit; any drift lands here.
    assert chaos_report.counter_mismatches == []
    assert chaos_report.violations == []  # bounded invariants all hold


def test_store_index_rebuilds_after_chaos(chaos_report):
    assert chaos_report.recovery["index_rebuilt"] == 1
    assert chaos_report.recovery["objects_quarantined"] == 0
    assert chaos_report.profiles_after_rebuild == chaos_report.profiles_stored


def test_schedules_are_deterministic():
    a = build_fault_schedules(7, 8)
    b = build_fault_schedules(7, 8)
    assert a == b
    assert [s.seed for s in a] == [7000 + i for i in range(8)]
    assert sum(1 for s in a if s.crash_attempts and s.crash_mode == "exit") == 2
    assert sum(1 for s in a if s.crash_attempts and s.crash_mode == "exception") == 2
    assert len({s.seed for s in a} & {s.seed for s in build_fault_schedules(8, 8)}) == 0


@pytest.mark.parametrize("jobs", range(6, 17))
def test_kill_harnesses_share_a_heavy_tail_that_grows_with_scale(jobs):
    # Both kill harnesses draw their burst here. The last two jobs run
    # 40x heavier on workloads whose work grows with scale, whatever the
    # job count; balanced's and leaky's stays at ~3 ms at any scale.
    burst = kill_burst(jobs, 0.05)
    assert len(burst) == jobs
    light, heavy = burst[:-2], burst[-2:]
    assert [workload for workload, _ in heavy] == ["pprint", "fannkuch"]
    assert min(scale for _, scale in heavy) >= 40 * 0.05
    assert max(scale for _, scale in light) < 40 * 0.05
    assert len(set(burst)) == jobs  # distinct payloads, distinct profiles


# -- chaos at scale: shard kill + router failover ---------------------------


@pytest.fixture(scope="module")
def shard_chaos_report(tmp_path_factory):
    """One shard-kill chaos run (seed 1) shared by the scale-out assertions:
    9 jobs through the gateway and a 3-shard plane, with the primary shard
    of one routed key killed mid-run and revived at the end."""
    return run_shard_chaos(
        seed=1,
        root=str(tmp_path_factory.mktemp("shard-chaos")),
        shards=3,
        jobs=9,
        kill_after=3,
        scale=0.05,
    )


def test_shard_chaos_run_is_clean(shard_chaos_report):
    assert shard_chaos_report.ok, shard_chaos_report.summary()


def test_shard_kill_loses_no_accepted_jobs(shard_chaos_report):
    # Jobs accepted before the kill — including ones dispatched to the
    # victim — all finish done with a profile id; the gateway ledger
    # re-dispatches, content addressing keeps storage exactly-once.
    assert shard_chaos_report.submitted == 9
    assert shard_chaos_report.done == 9
    assert shard_chaos_report.killed_shard  # a shard really was killed
    assert shard_chaos_report.done_before_kill < 9  # work was in flight


def test_replica_reads_degraded_but_correct(shard_chaos_report):
    # With the victim key's primary down, the routed /trend answers from
    # the replica: flagged degraded, but sketch ids == exact replay ids.
    degraded = shard_chaos_report.degraded_reads[0]
    assert degraded["degraded"] is True
    assert degraded["shard"] != shard_chaos_report.killed_shard
    assert degraded["sketch_ids"] == degraded["exact_ids"]
    assert degraded["sketch_ids"]  # the replica actually had the data


def test_revived_shard_resumes_primary_reads(shard_chaos_report):
    assert shard_chaos_report.revived
    healthy = shard_chaos_report.degraded_reads[1]
    assert healthy["degraded"] is False
    assert healthy["shard"] == shard_chaos_report.killed_shard
    assert healthy["sketch_ids"] == shard_chaos_report.degraded_reads[0]["sketch_ids"]


# -- chaos for the durable control plane: gateway kill -9 + reshard ---------


@pytest.fixture(scope="module")
def gateway_chaos_report(tmp_path_factory):
    """One gateway-kill chaos run (seed 1): 6 keyed jobs through a
    WAL-backed gateway over 2 shards, the gateway SIGKILLed (in-process
    crash-stop: no flush, no checkpoint) with work still in flight, then
    a fresh gateway recovered over the same WAL."""
    return run_gateway_chaos(
        seed=1,
        root=str(tmp_path_factory.mktemp("gateway-chaos")),
        shards=2,
        jobs=6,
        kill_after=2,
        scale=0.05,
    )


def test_gateway_chaos_run_is_clean(gateway_chaos_report):
    assert gateway_chaos_report.ok, gateway_chaos_report.summary()


def test_gateway_kill_loses_no_accepted_jobs(gateway_chaos_report):
    # Every 202 survived the kill -9: the recovered ledger lists all six
    # accepted jobs and re-dispatch drives each to done exactly once.
    assert gateway_chaos_report.submitted == 6
    assert gateway_chaos_report.done_before_kill < 6  # work was in flight
    assert gateway_chaos_report.recovered == 6
    assert gateway_chaos_report.done == 6
    assert gateway_chaos_report.unique_profiles == 6  # no duplicate stores


def test_gateway_recovery_replays_the_wal(gateway_chaos_report):
    # The crash left an unflushed WAL behind; replay read >= one record
    # per accepted job (accept + dispatch/terminal transitions) without
    # tripping on a torn tail.
    assert gateway_chaos_report.wal["replayed"] >= 6
    assert gateway_chaos_report.wal["torn_records"] == 0


def test_resubmitted_key_dedupes_across_restart(gateway_chaos_report):
    # submit_keys are recovered from the WAL, so a client retrying its
    # submission against the restarted gateway gets the original job
    # back rather than double-running it.
    assert gateway_chaos_report.deduped_resubmit


@pytest.fixture(scope="module")
def reshard_chaos_report(tmp_path_factory):
    """One reshard-under-load chaos run (seed 1): 6 jobs through a
    WAL-backed gateway while the ring grows 2 -> 3 shards and keys
    migrate in the background."""
    return run_reshard_chaos(
        seed=1,
        root=str(tmp_path_factory.mktemp("reshard-chaos")),
        shards=2,
        jobs=6,
        scale=0.05,
    )


def test_reshard_chaos_run_is_clean(reshard_chaos_report):
    assert reshard_chaos_report.ok, reshard_chaos_report.summary()


def test_reshard_migrates_every_key_under_load(reshard_chaos_report):
    # The epoch advanced exactly once, the ring grew, every job still
    # finished, and the placement audit found each stored key on its
    # new primary pair (asserted inside the harness).
    assert reshard_chaos_report.shards_after == 3
    assert reshard_chaos_report.epoch_after == reshard_chaos_report.epoch_before + 1
    assert reshard_chaos_report.done == reshard_chaos_report.submitted == 6


def test_reads_served_throughout_migration(reshard_chaos_report):
    assert reshard_chaos_report.reads_during_migration > 0


# -- targeted healing mechanisms ------------------------------------------


def _wait_terminal(daemon, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = daemon.job(job_id)
        if job.status in ("done", "error"):
            return job
        time.sleep(0.02)
    pytest.fail(f"{job_id} still {daemon.job(job_id).status} after {timeout_s}s")


def test_exception_crash_retries_until_success(tmp_path):
    """A worker that raises on its first two attempts succeeds on the third."""
    daemon = ProfileDaemon(
        str(tmp_path),
        workers=1,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.01, max_delay_s=0.05),
    )
    daemon.start()
    try:
        job = daemon.submit(
            {
                "workload": "pprint",
                "scale": 0.1,
                "faults": {"crash_attempts": 2, "crash_mode": "exception"},
            }
        )
        done = _wait_terminal(daemon, job.id)
        assert done.status == "done", done.error
        assert done.attempts == 3
        assert daemon.stats["retries"] == 2
        assert daemon.stats["pool_breaks"] == 0  # clean failures, pool intact
    finally:
        daemon.stop()


def test_retry_budget_exhausts_to_error(tmp_path):
    daemon = ProfileDaemon(
        str(tmp_path),
        workers=1,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, max_delay_s=0.05),
    )
    daemon.start()
    try:
        job = daemon.submit(
            {
                "workload": "pprint",
                "scale": 0.1,
                "faults": {"crash_attempts": 99, "crash_mode": "exception"},
            }
        )
        done = _wait_terminal(daemon, job.id)
        assert done.status == "error"
        assert done.attempts == 2
        assert "InjectedCrash" in done.error
    finally:
        daemon.stop()


def test_hung_worker_times_out_and_pool_recycles(tmp_path):
    """A hang past the job deadline recycles the pool; the retry succeeds."""
    daemon = ProfileDaemon(
        str(tmp_path),
        workers=1,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05),
    )
    daemon.start()
    try:
        job = daemon.submit(
            {
                "workload": "pprint",
                "scale": 0.1,
                "timeout_s": 1.0,
                "faults": {"hang_attempts": 1, "hang_s": 30.0},
            }
        )
        done = _wait_terminal(daemon, job.id)
        assert done.status == "done", done.error
        assert done.attempts == 2  # attempt 1 hung, attempt 2 ran clean
        assert daemon.stats["timeouts"] == 1
        assert daemon.stats["pool_respawns"] == 1
    finally:
        daemon.stop()


def test_circuit_breaker_quarantines_failing_workload(tmp_path):
    """Repeated clean failures open the workload's circuit: later jobs
    fail fast without ever reaching a worker."""
    daemon = ProfileDaemon(
        str(tmp_path),
        workers=1,
        retry=RetryPolicy(max_attempts=1),  # each failure is final
        breaker=CircuitBreaker(2, cooldown_s=600.0),
    )
    daemon.start()
    try:
        crashing = {"crash_attempts": 99, "crash_mode": "exception"}
        for _ in range(2):
            job = daemon.submit(
                {"workload": "pprint", "scale": 0.1, "faults": crashing}
            )
            assert _wait_terminal(daemon, job.id).status == "error"
        assert daemon.breaker.state("pprint") == OPEN
        rejected = daemon.submit({"workload": "pprint", "scale": 0.1})
        done = _wait_terminal(daemon, rejected.id)
        assert done.status == "error"
        assert "circuit open" in done.error
        assert done.attempts == 0  # never dispatched to a worker
        assert daemon.stats["breaker_rejections"] == 1
        assert daemon.health()["breaker"]["pprint"]["state"] == OPEN
        # Other workloads are unaffected.
        ok = daemon.submit({"workload": "balanced", "scale": 0.1})
        assert _wait_terminal(daemon, ok.id).status == "done"
    finally:
        daemon.stop()


def test_graceful_drain_finishes_accepted_work(tmp_path):
    daemon = ProfileDaemon(str(tmp_path), workers=2)
    daemon.start()
    jobs = [
        daemon.submit({"workload": workload, "scale": 0.1})
        for workload in ("pprint", "balanced", "leaky")
    ]
    daemon.drain(deadline_s=120.0)
    for job in jobs:
        final = daemon.job(job.id)
        assert final.status == "done", (final.status, final.error)
    with pytest.raises(ServeError, match="draining"):
        daemon.submit({"workload": "pprint", "scale": 0.1})
    assert not daemon._started  # drain ends in a full stop


def test_stop_is_idempotent_and_joins_threads(tmp_path):
    daemon = ProfileDaemon(str(tmp_path), workers=1)
    daemon.start()
    daemon.stop()
    daemon.stop()  # second stop is a no-op, not an error
    assert all(not t.is_alive() for t in daemon._threads)
