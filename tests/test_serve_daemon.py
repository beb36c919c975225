"""End-to-end tests for the continuous-profiling daemon.

A real daemon (HTTP server + 2-process worker pool + on-disk store) is
started once per module; the tests drive it purely over HTTP, exactly
like an external client. The concurrency test is the subsystem's
acceptance bar: 8 simultaneous submissions across 2 worker processes,
every profile persisted, and the merged aggregate's counters equal to
the sums (peaks: maxes) of the constituent runs.
"""

import copy
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro import SimProcess
from repro.core import Scalene
from repro.core.profile_data import ProfileData
from repro.errors import ServeError
from repro.serve import ProfileDaemon, ProfileStore, ServeClient
from repro.serve import daemon as daemon_module
from repro.serve.streaming import StreamingAggregator

#: 8 distinct jobs over 2 cheap workloads. The sampling-interval override
#: varies per job so each produces a distinct profile (the simulation is
#: deterministic; identical jobs would dedupe to one content id).
JOBS = [
    (workload, {"cpu_sampling_interval": 0.01 * (1 + variant * 0.3)})
    for workload in ("leaky", "balanced")
    for variant in range(4)
]


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    daemon = ProfileDaemon(
        tmp_path_factory.mktemp("serve-store"), workers=2, port=0
    )
    daemon.start()
    yield daemon
    daemon.stop()


@pytest.fixture(scope="module")
def client(daemon):
    return ServeClient(daemon.url)


@pytest.fixture(scope="module")
def completed_jobs(client):
    """Submit all 8 jobs concurrently; wait for completion."""
    results = [None] * len(JOBS)
    errors = []

    def submit(index, workload, config):
        try:
            job = client.submit(workload, config=config)
            results[index] = client.wait(job["id"], timeout=300)
        except Exception as exc:  # noqa: BLE001 — surface in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=submit, args=(i, workload, config))
        for i, (workload, config) in enumerate(JOBS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert not errors, errors
    return results


def test_health(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["workers"] == 2


def test_concurrent_jobs_all_complete_and_persist(client, completed_jobs):
    assert len(completed_jobs) == 8
    assert all(job["status"] == "done" for job in completed_jobs)
    profile_ids = [job["profile_id"] for job in completed_jobs]
    assert all(profile_ids)
    assert len(set(profile_ids)) == 8  # distinct workload×scale ⇒ distinct profiles
    stored = {entry["id"] for entry in client.profiles()}
    assert set(profile_ids) <= stored


def test_merged_profile_counters_are_sums_and_maxes(client, completed_jobs):
    """The acceptance criterion: the served aggregate is exactly the sum."""
    profile_ids = [job["profile_id"] for job in completed_jobs]
    parts = [client.profile_data(profile_id) for profile_id in profile_ids]
    merged_id = client.merge(profile_ids)["id"]

    served = client.profile(merged_id)
    assert served["id"] == merged_id
    merged = ProfileData.from_dict(served["profile"])
    assert merged.cpu_samples == sum(p.cpu_samples for p in parts)
    assert merged.total_alloc_mb == pytest.approx(
        sum(p.total_alloc_mb for p in parts)
    )
    assert merged.total_copy_mb == pytest.approx(
        sum(p.total_copy_mb for p in parts)
    )
    assert merged.peak_footprint_mb == max(p.peak_footprint_mb for p in parts)
    assert merged.mem_samples == sum(p.mem_samples for p in parts)
    assert sorted(served["meta"]["parents"]) == sorted(profile_ids)


def test_profile_index_filters_by_workload(client, completed_jobs):
    leaky = client.profiles(workload="leaky")
    assert len([e for e in leaky if not e["parents"]]) == 4
    assert all(e["workload"] == "leaky" for e in leaky)


def test_diff_endpoint(client, completed_jobs):
    a = completed_jobs[0]["profile_id"]  # leaky
    b = completed_jobs[4]["profile_id"]  # balanced — disjoint line sets
    diff = client.diff(a, b)
    before = client.profile_data(a)
    after = client.profile_data(b)
    assert diff["elapsed_before_s"] == pytest.approx(before.elapsed)
    assert diff["elapsed_after_s"] == pytest.approx(after.elapsed)
    assert diff["lines"]  # disjoint profiles still diff (against zero)
    assert isinstance(diff["leaks"], list)


def test_trend_endpoint(client, completed_jobs):
    trend = client.trend(workload="balanced")
    assert len(trend["trend"]) == 4
    created = [point["created_at"] for point in trend["trend"]]
    assert created == sorted(created)


def test_html_rendering(daemon, client, completed_jobs):
    profile_id = completed_jobs[0]["profile_id"]
    with urllib.request.urlopen(
        f"{daemon.url}/profiles/{profile_id}?format=html", timeout=30
    ) as response:
        assert response.headers["Content-Type"] == "text/html"
        page = response.read().decode("utf-8")
    assert "<!DOCTYPE html>" in page
    assert "Scalene profile" in page


def test_job_listing_and_lookup(client, completed_jobs):
    jobs = client.jobs()
    assert len(jobs) >= 8
    one = client.job(jobs[0]["id"])
    assert one["id"] == jobs[0]["id"]


def test_bad_submissions_fail_synchronously(client):
    with pytest.raises(ServeError, match="unknown workload"):
        client.submit("no-such-workload")
    with pytest.raises(ServeError, match="unknown profiler"):
        client.submit("leaky", profiler="no-such-profiler")
    with pytest.raises(ServeError, match="mode"):
        client.submit("leaky", mode="warp-speed")
    with pytest.raises(ServeError, match="scale"):
        client.submit("leaky", scale=-1)


def test_unknown_resources_are_404(daemon):
    for path in ("/profiles/" + "0" * 64, "/nope", "/jobs/job-999999"):
        try:
            urllib.request.urlopen(daemon.url + path, timeout=30)
        except urllib.error.HTTPError as exc:
            assert exc.code in (400, 404), path
            assert "error" in json.loads(exc.read().decode("utf-8"))
        else:  # pragma: no cover - the request must fail
            pytest.fail(f"{path} unexpectedly succeeded")


def test_merge_requires_two_ids(client, completed_jobs):
    with pytest.raises(ServeError, match="merge needs"):
        client.merge([completed_jobs[0]["profile_id"]])


def test_baseline_profiler_jobs(client):
    """Jobs can run baseline profilers; results land in the same store."""
    job = client.submit("balanced", profiler="cProfile", scale=0.02)
    done = client.wait(job["id"], timeout=300)
    profile = client.profile_data(done["profile_id"])
    assert profile.mode == "baseline:cProfile"
    assert profile.cpu_samples > 0


def test_faulted_job_over_http_yields_degraded_profile(client):
    """A job carrying a fault schedule round-trips the whole plane:
    HTTP submit -> worker-side injection -> degraded profile persisted."""
    job = client.submit(
        "balanced",
        scale=0.1,
        faults={"seed": 5, "signal_drop_rate": 0.2, "enomem_rate": 0.05},
    )
    done = client.wait(job["id"], timeout=300)
    profile = client.profile_data(done["profile_id"])
    assert profile.degraded
    assert profile.fault_counters  # something fired at these rates
    assert profile.invariant_violations() == []


def test_health_reports_healing_counters(client):
    health = client.health()
    assert set(health["healing"]) >= {
        "retries", "requeues", "timeouts", "pool_breaks", "pool_respawns",
    }
    assert isinstance(health["breaker"], dict)


def test_bad_fault_spec_fails_synchronously(client):
    with pytest.raises(ServeError, match="signal_drop_rate"):
        client.submit("leaky", faults={"signal_drop_rate": 3.0})
    with pytest.raises(ServeError, match="timeout_s"):
        client.submit("leaky", timeout_s=-5)


def test_crossflow_endpoint(client):
    job = client.submit("chatty", scale=0.25)
    done = client.wait(job["id"], timeout=300)
    result = client.crossflow(done["profile_id"])
    assert result["workload"] == "chatty"
    assert result["crossings"]["total"] > 0
    detectors = {f["detector"] for f in result["findings"]}
    assert "chatty-native-loop" in detectors
    chatty_sites = [
        f for f in result["findings"] if f["detector"] == "chatty-native-loop"
    ]
    assert all(f["crossings_per_iteration"] > 1 for f in chatty_sites)


def test_crossflow_endpoint_requires_id(daemon):
    try:
        urllib.request.urlopen(daemon.url + "/crossflow", timeout=30)
    except urllib.error.HTTPError as exc:
        assert exc.code == 400
        assert "crossflow needs" in json.loads(exc.read().decode("utf-8"))["error"]
    else:  # pragma: no cover - the request must fail
        pytest.fail("/crossflow without ?id unexpectedly succeeded")


def test_contention_endpoint(client):
    job = client.submit("producer_consumer", scale=1.0)
    done = client.wait(job["id"], timeout=300)
    result = client.contention(done["profile_id"])
    assert result["id"] == done["profile_id"]
    assert result["locks"]["blocked_s"] > 0
    assert result["locks"]["contentions"] > 0
    # The per-line table is sorted hottest-first and only lists lines that
    # actually touched a lock.
    lines = result["lines"]
    assert lines
    blocked = [entry["blocked_s"] for entry in lines]
    assert blocked == sorted(blocked, reverse=True)
    assert all(
        entry["contentions"] > 0 or entry["acquisitions"] > 0
        for entry in lines
    )
    edges = result["edges"]
    assert edges
    assert all(e["waiter"] != e["holder"] for e in edges)
    assert all(e["lock"] == "queue" for e in edges)


def test_contention_endpoint_requires_id(daemon):
    try:
        urllib.request.urlopen(daemon.url + "/contention", timeout=30)
    except urllib.error.HTTPError as exc:
        assert exc.code == 400
        assert "contention needs" in json.loads(exc.read().decode("utf-8"))["error"]
    else:  # pragma: no cover - the request must fail
        pytest.fail("/contention without ?id unexpectedly succeeded")


def test_stopped_daemon_refuses_connections(tmp_path):
    """A stopped daemon's port refuses connects at once, even after another
    daemon's worker process, forked later, inherited its listening socket.
    Otherwise clients connect to a socket nobody accepts from and wait out
    their read timeout (a killed shard looked alive to the gateway)."""
    victim = ProfileDaemon(tmp_path / "victim", workers=1, port=0)
    victim.start()
    sibling = ProfileDaemon(tmp_path / "sibling", workers=1, port=0)
    sibling.start()
    try:
        # The first job forks the sibling's worker, which inherits the
        # victim's listening socket.
        sibling_client = ServeClient(sibling.url)
        job = sibling_client.submit("balanced", mode="cpu", scale=0.05)
        assert sibling_client.wait(job["id"], timeout=120)["status"] == "done"
        victim.stop()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((victim.host, victim.port), timeout=5).close()
    finally:
        victim.stop()
        sibling.stop()


# -- the sketches are a checkpoint that boot catches up -----------------


def _variants(n):
    """``n`` distinct cpu-mode profiles of one small program."""
    source = "total = 0\nfor i in range(2000):\n    total = total + i\n"
    base = Scalene.run(SimProcess(source, filename="boot.py"), mode="cpu")
    variants = []
    for index in range(n):
        variant = copy.deepcopy(base)
        variant.elapsed *= 1.0 + index * 1e-3  # distinct content ids
        variants.append(variant)
    return variants


def test_boot_ingests_profiles_the_sketch_checkpoint_has_not_seen(tmp_path):
    store = ProfileStore(tmp_path)
    first, second = _variants(2)
    first_id = store.put(first, workload="wl", created_at=1.0)
    # A sketch checkpoint from before the second profile was stored, as a
    # crash between a put and the next checkpoint leaves it.
    aggregator = StreamingAggregator()
    aggregator.ingest(store.entry(first_id), first)
    (tmp_path / "sketches.json").write_text(json.dumps(aggregator.to_dict()) + "\n")
    store.put(second, workload="wl", created_at=2.0)
    daemon = ProfileDaemon(tmp_path, workers=1)
    daemon.start()
    try:
        client = ServeClient(daemon.url)
        sketch = client.trend(workload="wl")
        exact = client.trend(workload="wl", exact=1)
        assert exact["total"] == 2
        assert sketch["total"] == exact["total"]
        assert {p["id"] for p in sketch["trend"]} == {p["id"] for p in exact["trend"]}
        assert client.health()["sketch"]["ingested"] == 2
    finally:
        daemon.stop()


def test_clean_restart_answers_sketch_and_trend_byte_for_byte(tmp_path):
    profiles = _variants(4)
    store = ProfileStore(tmp_path)
    for index, profile in enumerate(profiles[:3]):
        store.put(profile, workload="wl", created_at=float(index))

    def answers(daemon):
        return [
            urllib.request.urlopen(daemon.url + path, timeout=30).read()
            for path in ("/sketch?state=1", "/trend?workload=wl")
        ]

    daemon = ProfileDaemon(store, workers=1)
    daemon.start()
    try:
        # One more profile lands while it runs, as a finished job's does.
        profile_id = store.put(profiles[3], workload="wl", created_at=3.0)
        assert daemon.ingest_stored(profile_id, profiles[3])
        before = answers(daemon)
    finally:
        daemon.stop()
    # stop() wrote the sketch checkpoint the reboot loads.
    checkpoint = json.loads((tmp_path / "sketches.json").read_text())
    assert checkpoint == json.loads(before[0])["state"]
    rebooted = ProfileDaemon(tmp_path, workers=1)
    rebooted.start()
    try:
        assert answers(rebooted) == before
    finally:
        rebooted.stop()


def test_the_monitor_writes_the_checkpoints_not_the_finish_path(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(daemon_module, "_CHECKPOINT_S", 0.1)
    daemon = ProfileDaemon(tmp_path, workers=1)
    (profile,) = _variants(1)
    profile_id = daemon.store.put(profile, workload="wl")
    assert daemon.ingest_stored(profile_id, profile)
    # A finished job's put and ingest write neither checkpoint.
    assert json.loads(daemon.store.index_path.read_text())["entries"] == []
    assert not (tmp_path / "sketches.json").exists()
    daemon.start()
    try:
        deadline = time.monotonic() + 30.0
        while not (tmp_path / "sketches.json").exists():
            assert time.monotonic() < deadline, "no sketch checkpoint"
            time.sleep(0.05)
        sketches = json.loads((tmp_path / "sketches.json").read_text())
        assert sketches["seen"] == [profile_id]
        index = json.loads(daemon.store.index_path.read_text())
        assert [e["id"] for e in index["entries"]] == [profile_id]
    finally:
        daemon.stop()


def test_a_slow_checkpoint_does_not_hold_up_job_deadlines(tmp_path, monkeypatch):
    """Checkpoints run on their own thread: while one is stuck writing
    ``index.json``, a hung job still times out within its deadline plus
    two monitor ticks."""
    monkeypatch.setattr(daemon_module, "_CHECKPOINT_S", 0.05)
    # A longer tick gives a loaded host room; a checkpoint on the monitor
    # would still hold the timeout until the test releases it, 2 s late.
    monkeypatch.setattr(daemon_module, "_MONITOR_TICK_S", 0.1)
    daemon = ProfileDaemon(tmp_path, workers=1)
    release = threading.Event()
    flush_index = daemon.store.flush_index

    def slow_flush_index():
        release.wait(10.0)
        flush_index()

    monkeypatch.setattr(daemon.store, "flush_index", slow_flush_index)
    daemon.start()
    try:
        job = daemon.submit({
            "workload": "pprint", "scale": 0.1, "timeout_s": 1.0,
            "faults": {"hang_attempts": 1, "hang_s": 30.0},
        })
        wait_until = time.monotonic() + 30.0
        while (deadline := daemon._deadlines.get(job.id)) is None:
            assert time.monotonic() < wait_until, "the job never reached a worker"
            time.sleep(0.005)
        while daemon.stats["timeouts"] == 0 and time.monotonic() < deadline + 2.0:
            time.sleep(0.005)
        timed_out_at = time.monotonic()
        release.set()
        assert daemon.stats["timeouts"] == 1
        assert timed_out_at <= deadline + 2 * daemon_module._MONITOR_TICK_S
    finally:
        release.set()
        daemon.stop()


def test_pool_workers_exit_when_the_serve_process_is_killed(tmp_path):
    """SIGKILL ``repro serve --shards 2`` after a finished job: the forked
    pool workers that hold the gateway's listening socket follow it, so
    the port can be bound again within 10 s."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port), "--shards", "2",
         "--workers", "1", "--store", str(tmp_path / "store")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,  # the workers share its process group
    )
    try:
        client = ServeClient(f"http://127.0.0.1:{port}")
        up_by = time.monotonic() + 60.0
        while True:
            try:
                client.health()
                break
            except ServeError:
                assert serve.poll() is None and time.monotonic() < up_by, "serve did not start"
                time.sleep(0.1)
        job = client.submit("pprint", mode="cpu", scale=0.02)
        assert client.wait(job["id"], timeout=120.0)["status"] == "done"
        serve.kill()
        serve.wait(timeout=10)
        free_by = time.monotonic() + 10.0
        while True:
            try:
                with socket.socket() as sock:
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                    sock.bind(("127.0.0.1", port))
                break
            except OSError:
                assert time.monotonic() < free_by, "the port is still held 10 s after the SIGKILL"
                time.sleep(0.1)
    finally:
        try:
            os.killpg(serve.pid, signal.SIGKILL)  # any leftover worker too
        except ProcessLookupError:
            pass
        serve.wait(timeout=10)
