"""The service workloads: jobs driven to terminal through the gateway.

Both run ``python -m repro serve --shards 2 --workers 1 --port 0`` (WAL
on, every option as shipped) in its own process and talk to it only
through its public HTTP API:

* ``serve_paced`` — an open loop at a fixed rate below capacity on a
  fresh store, with loadgen's default job mix (``cpu`` mode, scale 0.02,
  a few repeated payloads whose profiles dedupe): the gateway, WAL,
  batch dispatch, shard queue and status poll set the latency.
* ``serve_history`` — the same plane over a seeded history of distinct
  profiles in each shard's store: a burst of ``full``-mode jobs with
  distinct inputs (every profile new) drains to terminal, then one
  closed-loop reader queries ``/trend``, ``/profiles?workload=`` and
  ``/profiles/<id>``: writes into, then reads from, a deep store.

serve_paced's generator uses two threads (sender and status poller),
serve_history's none beside its main one; each keeps its own keep-alive
connection. Per-job stage spans are rebuilt after the run from the
public job records of the gateway and of the shards.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import WORK, BenchError, Http, Service, Tracer, canonical_sha256, load_json, quantile
from history import history
from layers import execute_timings, mode_differential, store_timings

#: serve_paced's offered load, about half the parent commit's capacity.
RATE_PER_S = 15.0
#: loadgen's default per-job scale (``run_load(scale=0.02)``).
PACED_SCALE = 0.02
#: serve_history's burst: programs whose profiles are distinct at every
#: scale below (recorded in digests.json). The burst is two jobs per run
#: second, capped at this pool of 30; the whole pool keeps the jobs'
#: split over the shards the same for every seed, and the seed orders it.
BURST_PROGRAMS = ("fannkuch", "mdp", "pprint", "raytrace", "sympy")
BURST_SCALES = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)
#: Boots timed for ``setup_s`` (median); the last one is measured.
BOOTS = 5
#: How often the benchmark reads the gateway's job counts on ``/health``.
POLL_S = 0.02
#: Jobs not terminal this long after the last submission have failed.
DRAIN_TIMEOUT_S = 90.0
#: Profiles fetched back and content-checked per run.
FETCH_SAMPLE = 3
#: serve_history reads for this share of the run seconds after the drain.
READ_SHARE = 0.5
TERMINAL = ("done", "error")


def digest_key(payload: Dict) -> str:
    return f"{payload['workload']}/{payload['mode']}/{payload['scale']}"


@dataclass
class JobRun:
    index: int
    payload: Dict
    due: float
    traced: bool
    sent: float = 0.0
    acked: float = 0.0
    gw_id: str = ""
    seen: float = 0.0
    record: Optional[Dict] = None
    error: str = ""

    @property
    def trace_id(self) -> str:
        return self.gw_id or f"job#{self.index}"


class JobDriver:
    """Submits jobs at their due times and reads their status until
    terminal. ``send`` and ``poll`` each own one connection."""

    def __init__(self, url: str, jobs: List[JobRun], tracer: Tracer) -> None:
        self.jobs = jobs
        self.tracer = tracer
        self._send_http = Http(url)
        self._poll_http = Http(url)
        self._outstanding: List[JobRun] = []
        self._lock = threading.Lock()
        self.sent_all = threading.Event()

    def send(self) -> None:
        try:
            for job in self.jobs:
                delay = job.due - time.time()
                if delay > 0:
                    time.sleep(delay)
                job.sent = time.time()
                try:
                    status, body, _ = self._send_http.request("POST", "/jobs", job.payload)
                except OSError as exc:
                    job.error = f"submit failed: {exc}"
                    continue
                job.acked = time.time()
                if status != 202 or not (body.get("job") or {}).get("id"):
                    job.error = f"submit answered {status}"
                    continue
                job.gw_id = body["job"]["id"]
                with self._lock:
                    self._outstanding.append(job)
        finally:
            self.sent_all.set()
            self._send_http.close()

    def poll(self) -> None:
        """Watch the gateway's terminal count on ``/health`` and read the
        outstanding jobs' records only when it grows, so status polling
        loads the service little however many jobs are outstanding."""
        deadline = None
        terminal_seen = 0
        try:
            while True:
                with self._lock:
                    pending = list(self._outstanding)
                if not pending and self.sent_all.is_set():
                    return
                if self.sent_all.is_set():
                    deadline = deadline or time.time() + DRAIN_TIMEOUT_S
                    if time.time() > deadline:
                        for job in pending:
                            job.error = "not terminal before the drain deadline"
                        return
                try:
                    _, health, _ = self._poll_http.request("GET", "/health")
                except OSError:
                    health = {}
                counts = health.get("jobs") or {}
                terminal = sum(counts.get(status, 0) for status in TERMINAL)
                if terminal > terminal_seen:
                    terminal_seen = terminal
                    for job in pending:
                        self._read_status(job)
                time.sleep(POLL_S)
        finally:
            self._poll_http.close()

    def _read_status(self, job: JobRun) -> None:
        t0 = time.time()
        try:
            status, body, _ = self._poll_http.request("GET", f"/jobs/{job.gw_id}")
        except OSError:
            return
        t1 = time.time()
        if job.traced:
            self.tracer.add("loadgen.status_read", job.trace_id, t0, t1)
        record = body.get("job") or {}
        if status == 200 and record.get("status") in TERMINAL:
            job.seen, job.record = t1, record
            with self._lock:
                self._outstanding.remove(job)


def _boot_measured(store_for_boot, log_dir) -> Tuple[Service, float]:
    """Boot ``BOOTS`` times; keep the last service running."""
    times = []
    service = None
    for boot in range(BOOTS):
        service = Service(store_for_boot(boot), log_dir / f"service-{boot}.log")
        times.append(service.start())
        if boot < BOOTS - 1:
            service.stop()
    return service, statistics.median(times)


def _check_jobs(jobs: List[JobRun], digests: Dict[str, str]) -> List[str]:
    """Per failed job, why: not done, or a profile other than recorded."""
    problems = []
    for job in jobs:
        if not job.error and (job.record or {}).get("status") != "done":
            job.error = f"ended {(job.record or {}).get('status')}: {(job.record or {}).get('error')}"
        elif not job.error and job.record.get("profile_id") != digests.get(digest_key(job.payload)):
            job.error = f"profile {job.record.get('profile_id', '')[:12]} is not the recorded digest"
        if job.error:
            problems.append(f"job {job.index} ({digest_key(job.payload)}): {job.error}")
    return problems


def _fetch_check(client: Http, profile_id: str) -> str:
    """Fetch a stored profile through the gateway; '' when its content
    hashes back to its id, else the problem."""
    status, body, _ = client.request("GET", f"/profiles/{profile_id}")
    if status != 200 or body.get("id") != profile_id:
        return f"fetch of {profile_id[:12]} answered {status}"
    if canonical_sha256({"store_format": 1, "profile": body.get("profile")}) != profile_id:
        return f"fetched profile {profile_id[:12]} does not hash to its id"
    return ""


def _stage_spans(service: Service, jobs: List[JobRun], tracer: Tracer,
                 out) -> Dict[str, float]:
    """Rebuild each job's stages from the gateway and shard records and
    read the service's own counters; returns per-layer metrics."""
    layers: Dict[str, float] = {}
    shard_jobs: Dict[str, Dict[str, Dict]] = {}
    list_ms, list_kb = [], []
    for name, url in sorted(service.shards.items()):
        client = Http(url)
        t0 = time.perf_counter()
        status, body, nbytes = client.request("GET", "/jobs")
        list_ms.append((time.perf_counter() - t0) * 1000.0)
        list_kb.append(nbytes / 1024.0)
        shard_jobs[name] = {j["id"]: j for j in body.get("jobs", [])}
        _, health, _ = client.request("GET", "/health")
        healing = health.get("healing", {})
        layers["daemon.healing_events"] = layers.get("daemon.healing_events", 0) + sum(
            healing.get(k, 0) for k in ("retries", "requeues", "timeouts", "pool_breaks",
                                        "replication_failures"))
        client.close()
    gateway = Http(service.url)
    _, health, _ = gateway.request("GET", "/health")
    gateway.close()
    stats, wal = health.get("stats", {}), health.get("wal") or {}
    layers["daemon.healing_events"] += stats.get("redispatched", 0)
    stages: Dict[str, List[float]] = {}
    per_shard: Dict[str, int] = {name: 0 for name in service.shards}
    done = [j for j in jobs if j.record and j.record.get("status") == "done"]
    for job in done:
        record = job.record
        shard_job = shard_jobs.get(record.get("shard"), {}).get(record.get("shard_job_id"))
        if shard_job is None:
            continue
        per_shard[record["shard"]] += 1
        marks = [
            ("loadgen.submit", job.due, job.acked),
            ("frontend.dispatch_wait", record["accepted_at"], shard_job["submitted_at"]),
            ("daemon.queue_wait", shard_job["submitted_at"], shard_job["started_at"]),
            ("daemon.run_persist", shard_job["started_at"], shard_job["finished_at"]),
            ("frontend.terminal_lag", shard_job["finished_at"], record["terminal_at"]),
            ("loadgen.status_poll", record["terminal_at"], job.seen),
        ]
        for name, start, end in marks:
            stages.setdefault(name, []).append((end - start) * 1000.0)
            tracer.add(name, job.trace_id, start, end, parent="bench.job")
        tracer.add("bench.job", job.trace_id, job.due, job.seen)
    print("per-job stages, p50 / p90 ms (from the gateway and shard job records):", file=out)
    for name, values in stages.items():
        print(f"  {name:<28} {quantile(values, 0.5):10.3f} {quantile(values, 0.9):10.3f}",
              file=out)
    for name in ("frontend.dispatch_wait", "daemon.run_persist", "frontend.terminal_lag"):
        layers[f"{name}_ms"] = quantile(stages.get(name, []), 0.5)
    layers["daemon.queue_wait_p50_ms"] = quantile(stages.get("daemon.queue_wait", []), 0.5)
    layers["daemon.queue_wait_p90_ms"] = quantile(stages.get("daemon.queue_wait", []), 0.9)
    layers["daemon.jobs_list_ms"] = statistics.mean(list_ms)
    layers["daemon.jobs_list_kb"] = statistics.mean(list_kb)
    layers["wal.appends_per_job"] = wal.get("appends", 0) / max(1, len(jobs))
    layers["wal.syncs_per_job"] = wal.get("syncs", 0) / max(1, len(jobs))
    counts = list(per_shard.values())
    layers["router.shard_skew"] = max(counts) / statistics.mean(counts) if sum(counts) else 0.0
    sent = [j for j in jobs if j.acked]
    layers["loadgen.late_p90_ms"] = quantile([(j.sent - j.due) * 1000.0 for j in sent], 0.9)
    accept = [(j.acked - j.due) * 1000.0 for j in sent]
    layers["frontend.accept_p50_ms"] = quantile(accept, 0.5)
    layers["frontend.accept_p90_ms"] = quantile(accept, 0.9)
    return layers


def _dedupe_share(jobs: List[JobRun], stored_before) -> float:
    seen = set(stored_before)
    repeats = 0
    done = [j for j in jobs if j.record and j.record.get("profile_id")]
    for job in done:
        profile_id = job.record["profile_id"]
        repeats += profile_id in seen
        seen.add(profile_id)
    return repeats / len(done) if done else 0.0


def _report_jobs(jobs: List[JobRun], out) -> Dict[str, float]:
    ok = [j for j in jobs if not j.error]
    accept = [(j.acked - j.due) * 1000.0 for j in ok]
    e2e = [(j.seen - j.due) * 1000.0 for j in ok]
    figures = {
        "accept_p50_ms": quantile(accept, 0.5), "accept_p90_ms": quantile(accept, 0.9),
        "e2e_p50_ms": quantile(e2e, 0.5), "e2e_p90_ms": quantile(e2e, 0.9),
    }
    for name, value in figures.items():
        print(f"  {name:<26} {value:10.3f} ms   (n={len(ok)})", file=out)
    return figures


#: Distinct job inputs the in-process side timings run (a prefix of the
#: seeded job order, so a traced run stays well inside its time limit).
SIDE_INPUTS = 10


def _inprocess_layers(payloads: List[Dict]) -> Dict[str, float]:
    """Mode-differential and ``execute_job`` timings on the job mix."""
    distinct = {(p["workload"], p["scale"]): p for p in payloads}
    payloads = list(distinct.values())[:SIDE_INPUTS]
    inputs = [(p["workload"], p["scale"]) for p in payloads]
    layers = mode_differential(inputs, reps=3)
    layers["jobs.execute_ms"] = execute_timings(payloads)
    return layers


# -- serve_paced -------------------------------------------------------------


def run_paced(seed: int, seconds: float, trace: bool, out, digests=None) -> Dict:
    from repro.serve.loadgen import DEFAULT_WORKLOADS

    digests = digests if digests is not None else load_json("digests.json")["serve"]
    rng = random.Random(seed)
    payloads = [{"workload": w, "mode": "cpu", "scale": PACED_SCALE, "timeout_s": 120}
                for w in DEFAULT_WORKLOADS]
    count = max(2, round(RATE_PER_S * seconds))
    run_dir = WORK / "run-serve_paced"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    service, setup_s = _boot_measured(lambda boot: run_dir / f"store-{boot}", run_dir)
    tracer = Tracer(trace)
    try:
        start = time.time() + 0.2
        # Evenly spaced arrivals with seeded jitter of ±40% of a gap.
        dues = sorted(start + (i + rng.uniform(-0.4, 0.4)) / RATE_PER_S for i in range(count))
        jobs = [JobRun(i, rng.choice(payloads), max(start, due), traced=trace and i % 2 == 1)
                for i, due in enumerate(dues)]
        driver = JobDriver(service.url, jobs, tracer)
        threads = [threading.Thread(target=driver.send), threading.Thread(target=driver.poll)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        problems = _check_jobs(jobs, digests)
        client = Http(service.url)
        done = [j for j in jobs if not j.error]
        fetched = rng.sample(done, min(FETCH_SAMPLE, len(done)))
        for job in fetched:
            problem = _fetch_check(client, job.record["profile_id"])
            if problem:
                job.error = problem
                problems.append(problem)
        client.close()
        reader = None
        if trace:  # a second of reads on the shallow store, to set beside serve_history's
            meta = {"ids": sorted({j.record["profile_id"] for j in done}),
                    "workloads": sorted({j.payload["workload"] for j in done})}
            if meta["ids"]:
                reader = Reader(service.url, random.Random(rng.random()), meta, tracer)
                reader.run(until=time.time() + 1.0)
        layers = _stage_spans(service, jobs, tracer, out) if trace else {}
        peak_rss = service.peak_rss_mb()
    finally:
        service.stop()
    ok = [j for j in jobs if not j.error]
    print(f"serve_paced: {len(jobs)} jobs offered at {RATE_PER_S:g}/s over {seconds:g} s, "
          f"{len(ok)} done and checked, {len(fetched)} profiles fetched back", file=out)
    for problem in problems:
        print(f"  FAILED {problem}", file=out)
    figures = _report_jobs(jobs, out)
    dedupe = _dedupe_share(jobs, ())
    print(f"  {'store.dedupe_share':<26} {dedupe:10.3f}", file=out)
    last_seen = max((j.seen for j in ok), default=start)
    result = {"attempted": len(jobs), "failed": len(jobs) - len(ok)}
    if not trace:
        result["metrics"] = {
            "latency_p50_ms": figures["e2e_p50_ms"],
            "latency_p90_ms": figures["e2e_p90_ms"],
            "throughput_per_s": len(ok) / max(1e-9, last_seen - jobs[0].due),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
        }
        return result
    traced_e2e = [(j.seen - j.due) * 1000.0 for j in ok if j.traced]
    plain_e2e = [(j.seen - j.due) * 1000.0 for j in ok if not j.traced]
    print(f"tracing overhead: traced minus untraced e2e p50 "
          f"{quantile(traced_e2e, 0.5) - quantile(plain_e2e, 0.5):+.3f} ms", file=out)
    if reader is not None:
        layers.update(_read_layers(reader, out))
        result["failed"] += sum(1 for q in reader.queries if q[3])
        result["attempted"] += len(reader.queries)
    layers["store.dedupe_share"] = dedupe
    tracer.report(out)
    tracer.write(WORK / f"trace-serve_paced-seed{seed}.json")
    layers.update(_inprocess_layers(payloads))
    from repro.core.profile_data import ProfileData
    from repro.serve.jobs import execute_job

    # Store layers on a deep seeded partition, the costs serve_history's
    # drain pays; this workload's own store stays shallow.
    fresh = [(p, ProfileData.from_json(execute_job(p))) for p in payloads]
    layers.update(store_timings(history(seed) / "partition", WORK / "scratch-store", fresh,
                                DEFAULT_WORKLOADS))
    result["metrics"] = layers
    return result


# -- serve_history ---------------------------------------------------------


class Reader:
    """One closed-loop reader of a seeded query mix, through the gateway."""

    def __init__(self, url: str, rng: random.Random, meta: Dict, tracer: Tracer) -> None:
        self.http = Http(url)
        self.rng = rng
        self.meta = meta
        self.tracer = tracer
        self.queries: List[tuple] = []  # (kind, start, end, problem)

    def run(self, until: float) -> None:
        try:
            while time.time() < until:
                # A fixed rotation of kinds keeps the mix's proportions the
                # same for every seed; the seed picks each query's target.
                kind = ("trend", "list", "fetch")[len(self.queries) % 3]
                target = (self.rng.choice(self.meta["ids"]) if kind == "fetch"
                          else self.rng.choice(self.meta["workloads"]))
                start = time.time()
                try:
                    problem = self._query(kind, target)
                except OSError as exc:
                    problem = f"{kind} failed: {exc}"
                end = time.time()
                self.queries.append((kind, start, end, problem))
                if self.tracer.enabled and len(self.queries) % 2 == 0:
                    self.tracer.add(f"reader.{kind}", f"query#{len(self.queries)}", start, end)
        finally:
            self.http.close()

    def _query(self, kind: str, target: str) -> str:
        """Send one query; '' when it answers 200 with the expected shape."""
        if kind == "fetch":
            return _fetch_check(self.http, target)
        path = f"/trend?workload={target}" if kind == "trend" else f"/profiles?workload={target}"
        status, body, _ = self.http.request("GET", path)
        rows = body.get("trend" if kind == "trend" else "profiles")
        if status != 200 or not isinstance(rows, list) or not rows:
            return f"{kind} {target} answered {status} without rows"
        if kind == "list" and any(row.get("workload") != target for row in rows):
            return f"list {target} returned another workload's profiles"
        return ""


def _read_layers(reader: Reader, out) -> Dict[str, float]:
    """Per-endpoint p50 of the reader's answered queries, and the tracing
    overhead: every other query is traced."""
    layers = {}
    for kind in ("trend", "list", "fetch"):
        plain = [(q[2] - q[1]) * 1000.0 for i, q in enumerate(reader.queries, 1)
                 if q[0] == kind and not q[3] and i % 2 == 1]
        traced = [(q[2] - q[1]) * 1000.0 for i, q in enumerate(reader.queries, 1)
                  if q[0] == kind and not q[3] and i % 2 == 0]
        layers[f"daemon.{kind}_ms"] = quantile(plain + traced, 0.5)
        print(f"tracing overhead: {kind} p50 traced minus untraced "
              f"{quantile(traced, 0.5) - quantile(plain, 0.5):+.3f} ms", file=out)
    return layers


def run_history(seed: int, seconds: float, trace: bool, out, digests=None) -> Dict:
    digests = digests if digests is not None else load_json("digests.json")["serve"]
    rng = random.Random(seed)
    built = time.perf_counter()
    cache = history(seed)
    built = time.perf_counter() - built
    meta = json.loads((cache / "meta.json").read_text(encoding="utf-8"))
    pool = [{"workload": w, "mode": "full", "scale": s, "timeout_s": 120}
            for w in BURST_PROGRAMS for s in BURST_SCALES]
    burst = rng.sample(pool, min(len(pool), max(2, round(2 * seconds))))
    run_dir = WORK / "run-serve_history"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    store = run_dir / "store"
    for shard in ("shard-00", "shard-01"):
        shutil.copytree(cache / "partition", store / shard)

    def fresh_wal(boot: int):
        shutil.rmtree(store / "gateway-wal", ignore_errors=True)
        return store

    service, setup_s = _boot_measured(fresh_wal, run_dir)
    tracer = Tracer(trace)
    try:
        start = time.time()
        jobs = [JobRun(i, payload, start, traced=trace and i % 2 == 1)
                for i, payload in enumerate(burst)]
        driver = JobDriver(service.url, jobs, tracer)
        driver.send()
        driver.poll()
        # The reads follow the drain on the now deeper store. Beside the
        # drain, the one service process splits its time between reads
        # and writes differently from run to run on a shared two-core host
        # (10-seed spreads of 0.24-0.27 of the median), which no bound of
        # this benchmark could hold.
        reader = Reader(service.url, random.Random(rng.random()), meta, tracer)
        reader.run(until=time.time() + seconds * READ_SHARE)
        problems = _check_jobs(jobs, digests)
        client = Http(service.url)
        done = [j for j in jobs if not j.error]
        for job in rng.sample(done, min(FETCH_SAMPLE, len(done))):
            problem = _fetch_check(client, job.record["profile_id"])
            if problem:
                job.error = problem
                problems.append(problem)
        client.close()
        layers = _stage_spans(service, jobs, tracer, out) if trace else {}
        peak_rss = service.peak_rss_mb()
    finally:
        service.stop()
    ok = [j for j in jobs if not j.error]
    drain_end = max((j.seen for j in ok), default=start)
    bad_queries = [q for q in reader.queries if q[3]]
    query_ms = [(q[2] - q[1]) * 1000.0 for q in reader.queries if not q[3]]
    jobs_per_s = len(ok) / max(1e-9, drain_end - start)
    print(f"serve_history: history of {meta['profiles']} profiles over {meta['keys']} keys "
          f"per shard (built in {built:.2f} s), burst of {len(jobs)} full-mode jobs, "
          f"{len(ok)} done and checked; then {len(reader.queries)} reader queries", file=out)
    for problem in problems + [q[3] for q in bad_queries]:
        print(f"  FAILED {problem}", file=out)
    _report_jobs(jobs, out)
    print(f"  {'jobs_per_s':<26} {jobs_per_s:10.3f} jobs/s", file=out)
    print(f"  {'query_p50_ms':<26} {quantile(query_ms, 0.5):10.3f} ms   (n={len(query_ms)})", file=out)
    print(f"  {'query_p90_ms':<26} {quantile(query_ms, 0.9):10.3f} ms", file=out)
    dedupe = _dedupe_share(jobs, meta["ids"])
    print(f"  {'store.dedupe_share':<26} {dedupe:10.3f}", file=out)
    result = {"attempted": len(jobs) + len(reader.queries),
              "failed": len(jobs) - len(ok) + len(bad_queries)}
    if not query_ms:
        raise BenchError("the reader completed no query")
    if not trace:
        result["metrics"] = {
            "latency_p50_ms": quantile(query_ms, 0.5),
            "latency_p90_ms": quantile(query_ms, 0.9),
            "throughput_per_s": jobs_per_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
        }
        return result
    layers.update(_read_layers(reader, out))
    layers["store.dedupe_share"] = dedupe
    tracer.report(out)
    tracer.write(WORK / f"trace-serve_history-seed{seed}.json")
    layers.update(_inprocess_layers(burst))
    from repro.core.profile_data import ProfileData
    from repro.serve.jobs import execute_job

    fresh = [(p, ProfileData.from_json(execute_job(p))) for p in burst[:3]]
    layers.update(store_timings(cache / "partition", WORK / "scratch-store", fresh,
                                meta["workloads"]))
    result["metrics"] = layers
    return result
