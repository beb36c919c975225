"""Pushed completions: the shard change cursor and the gateway's watchers.

A shard answers ``GET /jobs?since=<seq>&boot=<id>&wait=<s>`` the moment
a job finishes, with only the jobs finished since ``seq``; a cursor from
another boot, or one behind the trimmed change log, gets the whole table
(``full``). The gateway holds one such long-poll per shard, so a job's
completion reaches the ledger without a timed poll, and the status bytes
per job do not grow with the shard's history.

Every gateway here runs with ``poll_interval_s=3600``: the poll loop
never runs, so whatever reaches the ledger came through a watcher.
"""

import json
import sys
import threading
import time

import pytest

from repro.serve import ProfileDaemon, ServeClient, ServeFrontend, ShardPlane
from repro.serve import httpapi
from repro.serve import jobs as jobs_module
from repro.serve.jobs import TERMINAL, new_job

PAYLOAD = {"workload": "pprint", "mode": "cpu", "scale": 0.05}
SHARD = "shard-00"


def _finish(client, scale=0.05):
    job = client.submit("pprint", mode="cpu", scale=scale)
    return client.wait(job["id"], timeout=60.0, poll=0.01)


# -- the shard's change cursor -----------------------------------------


@pytest.fixture()
def daemon(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_MAX", 2)
    daemon = ProfileDaemon(tmp_path / "store", workers=1)
    daemon.start()
    yield daemon
    daemon.stop()


def test_cursor_answers_at_a_finish_else_after_wait(daemon):
    client = ServeClient(daemon.url)
    first = client.jobs_since(0, "", 0)
    assert first == {"boot": daemon.boot_id, "seq": 0, "full": True, "jobs": []}

    started = time.monotonic()
    idle = client.jobs_since(0, daemon.boot_id, 0.3)
    assert 0.25 <= time.monotonic() - started < 5.0
    assert idle == {"boot": daemon.boot_id, "seq": 0, "full": False, "jobs": []}

    answers = []
    poll = threading.Thread(
        target=lambda: answers.append(client.jobs_since(0, daemon.boot_id, 20.0))
    )
    started = time.monotonic()
    poll.start()
    job = client.submit("pprint", mode="cpu", scale=0.05)
    poll.join(timeout=60.0)
    assert not poll.is_alive()
    assert time.monotonic() - started < 20.0  # answered by the finish
    [answer] = answers
    assert answer["full"] is False and answer["seq"] == 1
    assert [j["id"] for j in answer["jobs"]] == [job["id"]]
    assert answer["jobs"][0]["status"] == "done"
    assert answer["jobs"][0] == client.job(job["id"])


def test_cursor_answers_full_for_another_boot_or_a_trimmed_log(daemon):
    client = ServeClient(daemon.url)
    ids = [_finish(client, scale=0.05 * (1 + i))["id"] for i in range(3)]
    boot = daemon.boot_id
    # The cap of 2 evicted the first job and its change (seq 1).
    assert client.jobs_since(3, boot, 0) == {
        "boot": boot, "seq": 3, "full": False, "jobs": []
    }
    delta = client.jobs_since(1, boot, 0)
    assert not delta["full"] and [j["id"] for j in delta["jobs"]] == ids[1:]
    behind = client.jobs_since(0, boot, 0)
    assert behind["full"] and [j["id"] for j in behind["jobs"]] == ids[1:]
    assert behind["jobs"] == client.jobs()  # the plain listing's records
    other = client.jobs_since(3, "another-boot", 0)
    assert other["full"] and other["boot"] == boot and other["seq"] == 3


def test_each_finish_past_the_cap_evicts_only_the_oldest_terminal_job(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_MAX", 2)
    daemon = ProfileDaemon(tmp_path / "store", workers=1)
    running, queued = daemon.submit(dict(PAYLOAD)), daemon.submit(dict(PAYLOAD))
    finished = [daemon.submit({**PAYLOAD, "submit_key": f"k{i}"}) for i in range(5)]
    with daemon._lock:
        running.status = "running"
        for n, job in enumerate(finished, 1):
            daemon._finish_locked(job, "done", profile_id="p")
            kept = [job.id for job in finished[max(0, n - 2) : n]]
            unfinished = [job.id for job in finished[n:]]
            assert [job.id for job in daemon.jobs()] == [
                running.id, queued.id, *kept, *unfinished
            ]
            floor = daemon._jobs.floor
            assert [job.id for job in daemon._jobs.finished_since(floor)] == kept
            assert floor == max(0, n - 2)
    # Evicted jobs' keys name no job, so they are new again.
    again = daemon.submit({**PAYLOAD, "submit_key": "k0"})
    assert again.id not in {job.id for job in finished}
    assert daemon.submit({**PAYLOAD, "submit_key": "k4"}) is finished[4]


def test_shard_table_evicts_terminal_jobs_past_the_age_limit(tmp_path, monkeypatch):
    daemon = ProfileDaemon(tmp_path / "store", workers=1)
    running = daemon.submit(dict(PAYLOAD))
    finished = [daemon.submit(dict(PAYLOAD)) for _ in range(3)]
    wall = time.time
    with daemon._lock:
        running.status = "running"
        for job, age in zip(finished, (120.0, 60.0, 0.0)):
            monkeypatch.setattr(time, "time", lambda age=age: wall() - age)
            daemon._finish_locked(job, "done", profile_id="p")
        monkeypatch.setattr(time, "time", wall)
        monkeypatch.setattr(jobs_module, "TERMINAL_RETENTION_S", 90.0)
        daemon._jobs.evict(time.time())  # what the monitor thread runs each tick
    assert [job.id for job in daemon.jobs()] == [running.id] + [
        job.id for job in finished[1:]
    ]
    assert daemon._jobs.floor == 1


def test_a_record_reads_while_its_stamps_change():
    # A shard's GET /jobs routes build to_dict() without the daemon's
    # lock while the dispatcher and the finish path stamp stages.
    jobs = [new_job(dict(PAYLOAD)) for _ in range(4)]
    stop = threading.Event()
    errors = []

    def stamp(job):
        while not stop.is_set():
            job.timeline["started"] = time.time()
            time.sleep(0)
            del job.timeline["started"]

    def read(job):
        while not stop.is_set():
            try:
                job.to_dict()
            except RuntimeError as exc:
                errors.append(exc)
                stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=role, args=(job,))
            for job in jobs
            for role in (stamp, read)
        ]
        for thread in threads:
            thread.start()
        stop.wait(3.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


# -- the gateway's watchers --------------------------------------------


@pytest.fixture()
def push_plane(tmp_path):
    """A one-shard plane and an unstarted gateway that never polls."""
    plane = ShardPlane(tmp_path / "plane", shards=1, workers=1)
    router = plane.start()
    gateway = ServeFrontend(router, poll_interval_s=3600.0)
    yield plane, gateway
    gateway.stop()
    plane.stop()


def _accept(gateway, scale=0.05):
    body = json.dumps({**PAYLOAD, "scale": scale}).encode("utf-8")
    return gateway._accept_job(body)["id"]


def test_a_finished_job_reaches_the_gateway_without_polling(push_plane):
    plane, gateway = push_plane
    gateway.start()
    done = _finish(ServeClient(gateway.url))
    assert done["status"] == "done" and done["profile_id"]
    shard_job = plane.daemons[SHARD].job(done["shard_job_id"])
    assert done["terminal_at"] - shard_job.timeline["finished"] < 1.0
    assert done["dispatched_at"] <= done["terminal_at"]


def test_every_gateway_answer_is_the_one_public_record(push_plane):
    plane, gateway = push_plane
    gateway.start()
    client = ServeClient(gateway.url)
    accepted = client.submit("pprint", mode="cpu", scale=0.05)
    done = client.wait(accepted["id"], timeout=60.0, poll=0.01)
    [listed] = [job for job in client.jobs() if job["id"] == accepted["id"]]
    assert listed == done
    # A stage not yet reached is absent, so the accept answer lacks two.
    assert set(done) == set(accepted) | {"dispatched_at", "terminal_at"}
    for answer in (accepted, listed, done):
        assert not {"payload", "dispatched_mono"} & set(answer), answer


def test_a_recovered_finished_job_keeps_its_dispatch_stamp(push_plane, tmp_path):
    plane, _ = push_plane
    wal = tmp_path / "wal"
    gateway = ServeFrontend(plane.router, poll_interval_s=3600.0, wal=wal)
    gateway.start()
    done = _finish(ServeClient(gateway.url))
    deadline = time.monotonic() + 10.0
    while gateway.wal.records_since_checkpoint < 3:  # accept, dispatch, terminal
        assert time.monotonic() < deadline
        time.sleep(0.01)
    gateway.kill()
    recovered = ServeFrontend(plane.router, poll_interval_s=3600.0, wal=wal)
    recovered.start()
    try:
        again = ServeClient(recovered.url).job(done["id"])
    finally:
        recovered.stop()
    assert again == done and "dispatched_at" in again


def test_a_completion_reported_before_its_dispatch_is_recorded_is_kept(
    push_plane, monkeypatch
):
    plane, gateway = push_plane
    daemon = plane.daemons[SHARD]
    gateway.start()
    client = ServeClient(gateway.url)
    _finish(client)  # the shard's watcher is now running

    applied = []
    apply_changes = ServeFrontend._apply_changes
    record_dispatch = ServeFrontend._record_dispatch

    def logged_apply(self, shard, answer, sent_at):
        applied.append((answer["full"], [job["id"] for job in answer["jobs"]]))
        apply_changes(self, shard, answer, sent_at)

    def late_record(self, shard, gw_id, shard_job_id):
        # Hold the record back until the shard has finished the job and
        # published the finish on its cursor.
        deadline = time.monotonic() + 60.0
        while daemon.job(shard_job_id).status not in TERMINAL:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.2)
        record_dispatch(self, shard, gw_id, shard_job_id)

    monkeypatch.setattr(ServeFrontend, "_apply_changes", logged_apply)
    monkeypatch.setattr(ServeFrontend, "_record_dispatch", late_record)
    done = _finish(client, scale=0.06)
    assert done["status"] == "done"
    assert (False, [done["shard_job_id"]]) in applied  # a delta, no reconcile
    assert gateway.stats["redispatched"] == 0


@pytest.mark.parametrize("clock_step_s", [0.0, -3600.0])
def test_a_full_answer_older_than_a_dispatch_does_not_requeue_it(
    push_plane, monkeypatch, clock_step_s
):
    plane, gateway = push_plane
    jobs_since = ServeClient.jobs_since
    wall = time.time
    dispatched = []

    def dispatch_in_flight(client, since, boot, wait):
        answer = jobs_since(client, since, boot, wait)  # the shard's table
        dispatched.append(_accept(gateway))
        # A wall clock stepped back makes this dispatch look older than
        # the request; the order must not depend on it.
        monkeypatch.setattr(time, "time", lambda: wall() + clock_step_s)
        gateway._flush_pending()
        monkeypatch.setattr(time, "time", wall)
        return answer

    monkeypatch.setattr(ServeClient, "jobs_since", dispatch_in_flight)
    gateway._watch_once(SHARD, ("", 0))
    [gw_id] = dispatched
    assert gateway.ledger[gw_id].status == "dispatched"
    assert gateway.stats["redispatched"] == 0


def test_a_revived_shard_answers_full_and_its_lost_job_is_requeued(push_plane):
    plane, gateway = push_plane
    old_boot, seq = gateway._watch_once(SHARD, ("", 0))
    gw_id = _accept(gateway, scale=0.5)
    gateway._flush_pending()
    assert gateway.ledger[gw_id].status == "dispatched"
    plane.kill(SHARD)
    revived = plane.revive(SHARD)

    cursor = gateway._watch_once(SHARD, (old_boot, seq))
    assert cursor == (revived.boot_id, 0) and revived.boot_id != old_boot
    assert gateway.ledger[gw_id].status == "accepted"
    assert gateway.stats["redispatched"] == 1

    gateway.start()  # dispatches the requeued job to the revived shard
    done = ServeClient(gateway.url).wait(gw_id, timeout=60.0, poll=0.01)
    assert done["status"] == "done" and done["shard"] == SHARD
    assert revived.job(done["shard_job_id"]).status == "done"
    assert gateway.stats["redispatched"] == 1
    assert gateway._dispatched_locked(SHARD) == []  # nothing left in flight


def test_status_traffic_per_job_ignores_the_shard_history(push_plane, monkeypatch):
    """The ROADMAP gate: gateway<-shard bytes per job are O(1)."""
    plane, gateway = push_plane
    daemon = plane.daemons[SHARD]
    sent = []
    reply = httpapi._Handler._reply

    class Counted:
        def __init__(self, wfile):
            self.wfile = wfile

        def write(self, data):
            sent.append(len(data))
            return self.wfile.write(data)

    def counted_reply(handler, status, payload):
        if handler.server is not daemon._server:
            return reply(handler, status, payload)
        wfile, handler.wfile = handler.wfile, Counted(handler.wfile)
        try:
            reply(handler, status, payload)
        finally:
            handler.wfile = wfile

    monkeypatch.setattr(httpapi._Handler, "_reply", counted_reply)
    gateway.start()
    client = ServeClient(gateway.url)

    def bytes_per_job(jobs=5):
        _finish(client)  # the watcher has caught up with the cursor
        del sent[:]
        for _ in range(jobs):
            _finish(client)
        return sum(sent) / jobs

    empty = bytes_per_job()
    with daemon._lock:
        for _ in range(300):
            job = new_job(dict(PAYLOAD))
            daemon._jobs.add(job)
            daemon._finish_locked(job, "done", profile_id="0" * 64)
    assert len(daemon.jobs()) > 300
    loaded = bytes_per_job()
    assert abs(loaded - empty) <= 0.1 * empty, (empty, loaded)
