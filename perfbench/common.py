"""Shared plumbing for the product-path benchmark.

Everything here runs in the benchmark's own process: paths inside the
checkout, the statistics every workload reports, a keep-alive HTTP
client, the service launcher (``python -m repro serve`` in its own
process group) and the in-memory span recorder of the traced run.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlparse

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, logs, caches and traces (ignored by git).
WORK = ROOT / ".bench_build" / "perfbench"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, service down)."""


def product_env() -> Dict[str, str]:
    """The environment for a service process: sources on the path and
    no ``REPRO_*`` override, so every knob stays at its shipped default."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def load_json(name: str) -> Dict:
    return json.loads((BENCH_DIR / name).read_text(encoding="utf-8"))


def canonical_sha256(payload) -> str:
    """SHA-256 of sorted-key, minimal-separator JSON (the store's
    content address), computed independently of the program."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def source_digest() -> str:
    """SHA-256 over the program sources, naming the code measured when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit_id() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return "n/a"
    return out.stdout.strip() if out.returncode == 0 else "n/a"


# -- statistics ------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    try:
        status = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


# -- HTTP ------------------------------------------------------------------


class Http:
    """One keep-alive connection; a thread owns its own instance."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parsed = urlparse(url)
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 80
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body=None) -> Tuple[int, Dict, int]:
        """``(status, parsed JSON body, body bytes)``.

        A GET is re-sent once on a connection the server closed between
        requests; a POST never is (a lost answer may still be accepted).
        """
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        for attempt in (1, 2):
            try:
                if self._conn is None:
                    self._conn = http.client.HTTPConnection(
                        self.host, self.port, timeout=self.timeout
                    )
                self._conn.request(method, path, body=data, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt == 2 or method != "GET":
                    raise
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError:
            payload = {}
        return response.status, payload, len(raw)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# -- the service process ---------------------------------------------------


class Service:
    """``python -m repro serve --shards 2 --workers 1 --port 0`` as users
    start it, in its own process group so every worker is stopped too."""

    BOOT_TIMEOUT_S = 60.0

    def __init__(self, store: Path, log: Path) -> None:
        self.store = store
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.shards: Dict[str, str] = {}

    def start(self) -> float:
        """Boot and wait for the first healthy ``/health``; returns the
        seconds from spawn to that answer."""
        self.log.parent.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--shards", "2",
                 "--workers", "1", "--port", "0", "--store", str(self.store)],
                cwd=ROOT, env=product_env(), stdout=out,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        deadline = started + self.BOOT_TIMEOUT_S
        while not self._parse_banner():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError(f"service failed to boot; see {self.log}")
            time.sleep(0.002)
        client = Http(self.url, timeout=5.0)
        try:
            while True:
                try:
                    status, health, _ = client.request("GET", "/health")
                    if status == 200 and health.get("status") == "ok" and len(
                        (health.get("shards") or {}).get("live", [])
                    ) == 2:
                        return time.perf_counter() - started
                except OSError:
                    pass
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise BenchError(f"service never became healthy; see {self.log}")
                time.sleep(0.002)
        finally:
            client.close()

    def _parse_banner(self) -> bool:
        """The CLI prints the gateway URL, then one line per shard."""
        try:
            text = self.log.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return False
        shards = {}
        for line in text.splitlines():
            if "gateway on " in line:
                self.url = line.split("gateway on ", 1)[1].split()[0]
            elif line.strip().startswith("shard-") and ": http" in line:
                name, url = line.strip().split(": ", 1)
                shards[name] = url.strip()
        if self.url and len(shards) == 2:
            self.shards = shards
            return True
        return False

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid) if self.proc else 0.0

    def stop(self) -> None:
        """Ctrl-C the service (it stops its shards and worker pools), then
        make sure no member of its process group outlives it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        pgid = proc.pid
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and _group_alive(pgid):
            time.sleep(0.02)


def _group_alive(pgid: int) -> bool:
    """True while a non-zombie member of ``pgid`` remains."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text(encoding="ascii").rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


# -- tracing ---------------------------------------------------------------


class Tracer:
    """Spans ``(name, trace_id, parent, start_s, end_s)`` kept in memory
    and written out once, when the benchmark ends. Disabled, it records
    nothing, so untraced runs pay only the clock reads."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Tuple[str, str, Optional[str], float, float]] = []

    def add(self, name: str, trace_id: str, start: float, end: float,
            parent: Optional[str] = None) -> None:
        if self.enabled:
            self.spans.append((name, trace_id, parent, start, end))

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus the part of its
        interval that its child spans cover (seconds)."""
        children: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
        for name, trace_id, parent, start, end in self.spans:
            if parent is not None:
                children.setdefault((trace_id, parent), []).append((start, end))
        out: Dict[str, List[float]] = {}
        for name, trace_id, _, start, end in self.spans:
            covered, cursor = 0.0, start
            for lo, hi in sorted(children.get((trace_id, name), [])):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.setdefault(name, []).append(max(0.0, end - start - covered))
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "trace_id": t, "parent": p, "start": s, "end": e}
            for n, t, p, s, e in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")

    def report(self, out) -> None:
        """Print each layer's self time: p50 per span and total."""
        selfs = self.self_times()
        print("self time by span (layer.step: count, p50 ms, total ms):", file=out)
        layers: Dict[str, float] = {}
        for name in sorted(selfs):
            values = selfs[name]
            layers[name.split(".", 1)[0]] = layers.get(name.split(".", 1)[0], 0.0) + sum(values)
            print(f"  {name:<28} {len(values):6d} {quantile(values, 0.5) * 1000:10.3f}"
                  f" {sum(values) * 1000:12.1f}", file=out)
        print("self time by layer (total ms):", file=out)
        for layer in sorted(layers):
            print(f"  {layer:<28} {layers[layer] * 1000:12.1f}", file=out)
