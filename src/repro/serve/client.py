"""Stdlib HTTP client for the profiling daemon.

Backs ``python -m repro submit`` / ``repro profiles`` and the test
suite; every method maps to one daemon endpoint and returns parsed JSON
(or a :class:`~repro.core.profile_data.ProfileData` where noted).

Transport resilience: every call carries separate **connect** and
**read** timeouts (a dead host fails in ``connect_timeout_s``, a wedged
daemon in ``timeout``), and *idempotent* requests retry with bounded
seeded exponential backoff on transport errors. GETs are always
idempotent; ``POST /merge`` and ``POST /replicate`` are too (content
addressing — re-sending stores the same id). ``POST /jobs`` is **not**
retried by default: a submission whose response was lost may have been
accepted, and a retry would double-run the job. Passing
``idempotent=True`` to :meth:`ServeClient.submit` changes the contract:
the payload carries a client-generated ``submit_key`` that the gateway
(and single daemons) dedupe on, which makes resubmission safe — so the
client reconnects with jittered backoff through a gateway restart
instead of surfacing a hard error.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request
import uuid
from typing import Dict, List, Optional, Sequence
from urllib.parse import urlencode

from repro.core.profile_data import ProfileData
from repro.errors import ServeError
from repro.serve.healing import RetryPolicy
from repro.serve.jobs import TERMINAL

#: POST paths that are safe to retry (content-addressed writes).
_IDEMPOTENT_POSTS = ("/merge", "/replicate")


class ServeClient:
    """Talks to one daemon at ``url`` (e.g. ``http://127.0.0.1:8000``)."""

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 30.0,
        connect_timeout_s: Optional[float] = 5.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.connect_timeout_s = (
            connect_timeout_s if connect_timeout_s is not None else timeout
        )
        #: Backoff schedule for idempotent requests. ``max_attempts=1``
        #: disables retries entirely.
        self.retry = retry if retry is not None else RetryPolicy(
            3, base_delay_s=0.05, max_delay_s=1.0
        )

    # -- transport ------------------------------------------------------

    def _open(self, request: "urllib.request.Request") -> Dict:
        """One HTTP round trip with split connect/read timeouts.

        ``urllib`` exposes a single timeout covering both phases; the
        connect bound is enforced by probing the socket first, so a dead
        or unroutable host fails fast instead of consuming the full read
        budget.
        """
        if self.connect_timeout_s < self.timeout:
            host = request.host.rsplit(":", 1)
            port = int(host[1]) if len(host) == 2 else 80
            try:
                probe = socket.create_connection(
                    (host[0], port), timeout=self.connect_timeout_s
                )
                probe.close()
            except OSError as exc:
                raise urllib.error.URLError(exc) from None
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return json.loads(response.read().decode("utf-8"))

    def _request(
        self,
        path: str,
        body: Optional[Dict] = None,
        *,
        idempotent: Optional[bool] = None,
    ) -> Dict:
        request = urllib.request.Request(self.url + path)
        if body is not None:
            request.data = json.dumps(body).encode("utf-8")
            request.add_header("Content-Type", "application/json")
        if idempotent is None:
            idempotent = body is None or any(
                path == p or path.startswith(p + "?") for p in _IDEMPOTENT_POSTS
            )
        attempts = 0
        while True:
            attempts += 1
            try:
                return self._open(request)
            except urllib.error.HTTPError as exc:
                # The daemon answered; never retry a definitive response.
                try:
                    message = json.loads(exc.read().decode("utf-8")).get(
                        "error", str(exc)
                    )
                except ValueError:
                    message = str(exc)
                raise ServeError(f"{path}: {message}") from None
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                reason = getattr(exc, "reason", exc)
                if idempotent and self.retry.should_retry(attempts):
                    time.sleep(self.retry.delay(attempts))
                    continue
                raise ServeError(
                    f"cannot reach daemon at {self.url} "
                    f"after {attempts} attempt(s): {reason}"
                ) from None

    # -- endpoints ------------------------------------------------------

    def health(self) -> Dict:
        return self._request("/health")

    def submit(
        self,
        workload: str,
        *,
        profiler: str = "scalene",
        mode: str = "full",
        scale: float = 1.0,
        config: Optional[Dict] = None,
        faults: Optional[Dict] = None,
        timeout_s: Optional[float] = None,
        submit_key: Optional[str] = None,
        idempotent: bool = False,
    ) -> Dict:
        """Submit a job; returns the job dict (status ``queued``).

        ``faults`` is an optional :meth:`repro.faults.FaultSpec.to_dict`
        payload (the job's fault schedule, for chaos testing);
        ``timeout_s`` overrides the daemon's per-job wall-clock budget.

        ``idempotent=True`` attaches a ``submit_key`` (auto-generated
        unless given) and retries the submission through transport
        errors with the client's jittered backoff: a gateway restarting
        mid-call answers the resubmission from its recovered ledger
        (same gateway id, no double-run) instead of dropping it.
        """
        payload = {
            "workload": workload,
            "profiler": profiler,
            "mode": mode,
            "scale": scale,
        }
        if config:
            payload["config"] = config
        if faults:
            payload["faults"] = faults
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        if idempotent and submit_key is None:
            submit_key = f"sk-{uuid.uuid4().hex}"
        if submit_key is not None:
            payload["submit_key"] = submit_key
            idempotent = True
        return self._request("/jobs", body=payload, idempotent=idempotent or None)[
            "job"
        ]

    def job(self, job_id: str) -> Dict:
        return self._request(f"/jobs/{job_id}")["job"]

    def jobs(self) -> List[Dict]:
        return self._request("/jobs")["jobs"]

    def jobs_since(self, since: int, boot: str, wait: float) -> Dict:
        """A shard's change cursor: ``{"boot", "seq", "full", "jobs"}``.

        Long-polls up to ``wait`` seconds for jobs finished after change
        ``since`` of boot ``boot``; see :meth:`ProfileDaemon.changes`.
        """
        return self._request(f"/jobs?since={since}&boot={boot}&wait={wait}")

    def wait(self, job_id: str, *, timeout: float = 120.0, poll: float = 0.1) -> Dict:
        """Poll until the job finishes; raises on job error or timeout."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["status"] in TERMINAL:
                if job["status"] == "error":
                    raise ServeError(f"job {job_id} failed: {job['error']}")
                return job
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {job['status']} after {timeout:.0f}s"
                )
            time.sleep(poll)

    def profiles(self, **filters) -> List[Dict]:
        """Matching index entries (paged server-side; ``limit=0`` = all)."""
        return self.profiles_page(**filters)["profiles"]

    def profiles_page(self, **filters) -> Dict:
        """The full paged listing: ``{"profiles", "total", "limit", "offset"}``."""
        return self._request(query_path("/profiles", filters))

    def profile(self, profile_id: str) -> Dict:
        """The stored profile envelope: ``{"id", "meta", "profile"}``."""
        return self._request(f"/profiles/{profile_id}")

    def profile_data(self, profile_id: str) -> ProfileData:
        """The stored profile as a :class:`ProfileData`."""
        return ProfileData.from_dict(self.profile(profile_id)["profile"])

    def merge(self, ids: Sequence[str]) -> Dict:
        """Merge stored profiles; returns ``{"id", "profile"}``."""
        return self._request("/merge", body={"ids": list(ids)})

    def merge_sketch(self, **filters) -> Dict:
        """Sketch-backed merged view of an index slice (nothing stored)."""
        return self._request("/merge", body={k: v for k, v in filters.items() if v})

    def diff(self, before_id: str, after_id: str) -> Dict:
        return self._request(f"/diff?a={before_id}&b={after_id}")["diff"]

    def crossflow(self, profile_id: str) -> Dict:
        """Cross-flow analysis of a stored profile: boundary lints of its
        workload joined with the stored crossing counters."""
        return self._request(f"/crossflow?id={profile_id}")

    def contention(self, profile_id: str) -> Dict:
        """Lock-contention view of a stored profile: blocked-time totals,
        the per-line table, and the who-blocks-whom edge list."""
        return self._request(f"/contention?id={profile_id}")

    def trend(self, **filters) -> Dict:
        """Sketch-backed trend (pass ``exact=1`` to replay history)."""
        return self._request(query_path("/trend", filters))

    def sketch(self, **filters) -> Dict:
        """Streaming per-line statistics for an index slice."""
        return self._request(query_path("/sketch", filters))

    def replicate(self, entry: Dict, profile_payload: Dict) -> Dict:
        """Push a profile copy to this daemon (idempotent)."""
        return self._request(
            "/replicate", body={"entry": entry, "profile": profile_payload}
        )


def query_path(path: str, filters: Dict) -> str:
    """``path`` with the filters that are set as a URL-encoded query."""
    query = urlencode({k: v for k, v in filters.items() if v not in (None, "")})
    return f"{path}?{query}" if query else path
