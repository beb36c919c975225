"""Unit tests for the scale-out serve plane (DESIGN.md §12).

Covers the pieces the chaos and property suites exercise only end to
end: the consistent-hash router's placement and failover policy, the
ServeClient's bounded retry-with-backoff (idempotent requests retry,
job submission never does), server-side pagination of ``/profiles`` and
``/trend``, the batching gateway's routed reads, and the error statuses
the daemon and the gateway share.

The router and retry tests are pure/socket-level and fast; the daemon
and gateway fixtures are module-scoped so the process boots happen
once.
"""

import copy
import http.client
import json
import socket
import threading
import time
from urllib.parse import urlparse

import pytest

from repro.core.profile_data import ProfileData
from repro.errors import ServeError
from repro.serve import frontend as frontend_module
from repro.serve.client import ServeClient
from repro.serve.daemon import ProfileDaemon
from repro.serve.frontend import ServeFrontend
from repro.serve.healing import RetryPolicy
from repro.serve.jobs import execute_job
from repro.serve.router import DEFAULT_VNODES, HashRing, ShardRouter, shard_key
from repro.serve.shard import ShardPlane
from repro.serve.store import ProfileStore

SHARDS = ["shard-00", "shard-01", "shard-02"]
KEYS = [shard_key(f"workload-{i}", f"cfg-{i % 7}") for i in range(400)]


# -- consistent-hash ring ----------------------------------------------


def test_ring_rejects_empty_and_duplicate_shards():
    with pytest.raises(ServeError, match="at least one shard"):
        HashRing([])
    with pytest.raises(ServeError, match="duplicate shard names"):
        HashRing(["a", "a", "b"])


def test_owners_cover_every_shard_once_and_are_stable():
    ring = HashRing(SHARDS)
    again = HashRing(list(SHARDS))
    for key in KEYS[:50]:
        owners = ring.owners(key)
        assert sorted(owners) == sorted(SHARDS)
        # SHA-256-based ring positions are process-independent.
        assert owners == again.owners(key)


def test_primary_spread_is_balanced():
    counts = HashRing(SHARDS).spread(KEYS)
    assert sum(counts.values()) == len(KEYS)
    expected = len(KEYS) / len(SHARDS)
    for shard, count in counts.items():
        assert count > expected * 0.5, (shard, counts)
        assert count < expected * 1.5, (shard, counts)


def test_removing_a_shard_only_moves_its_keys():
    before = HashRing(SHARDS)
    after = HashRing(SHARDS[:-1])
    moved = 0
    for key in KEYS:
        old = before.primary(key)
        if old == SHARDS[-1]:
            moved += 1
        else:
            # Keys not owned by the removed shard must not move.
            assert after.primary(key) == old
    # ~1/N of the key space remaps, and nothing else.
    assert 0 < moved < len(KEYS)


def test_replica_is_the_next_distinct_owner():
    router = ShardRouter({s: f"http://127.0.0.1:{i}" for i, s in enumerate(SHARDS)})
    for i in range(20):
        workload, cfg = f"w{i}", "c"
        owners = router.ring.owners(shard_key(workload, cfg))
        assert router.primary(workload, cfg) == owners[0]
        assert router.replica(workload, cfg) == owners[1]
        assert router.replica(workload, cfg) != router.primary(workload, cfg)


# -- router failover policy --------------------------------------------


@pytest.fixture()
def router():
    return ShardRouter({s: f"http://127.0.0.1:{i}" for i, s in enumerate(SHARDS)})


def test_route_prefers_primary_then_degrades_to_replica(router):
    primary = router.primary("pprint", "cfg")
    assert router.route("pprint", "cfg") == (primary, False)

    router.mark_down(primary)
    shard, degraded = router.route("pprint", "cfg")
    assert degraded is True
    assert shard == router.ring.owners(shard_key("pprint", "cfg"))[1]

    router.mark_up(primary)
    assert router.route("pprint", "cfg") == (primary, False)


def test_route_raises_when_every_owner_is_down(router):
    for shard in SHARDS:
        router.mark_down(shard)
    assert router.live_shards() == []
    with pytest.raises(ServeError, match="all down"):
        router.route("pprint", "cfg")


def test_router_health_bookkeeping(router):
    with pytest.raises(ServeError, match="unknown shard"):
        router.mark_down("shard-99")
    with pytest.raises(ServeError, match="unknown shard"):
        router.url("shard-99")
    router.mark_down("shard-01")
    assert router.is_down("shard-01")
    assert router.down_shards() == ["shard-01"]
    assert router.live_shards() == ["shard-00", "shard-02"]
    described = router.describe()
    assert described["vnodes"] == DEFAULT_VNODES
    by_name = {entry["name"]: entry for entry in described["shards"]}
    assert by_name["shard-01"]["down"] is True
    assert by_name["shard-00"]["down"] is False
    assert by_name["shard-00"]["replica"] in SHARDS[1:]


# -- client retry / timeouts -------------------------------------------


class _FlakyServer(threading.Thread):
    """Closes the first ``failures`` connections without answering, then
    serves ``body`` as JSON on every later one (one request per
    connection). Stands in for a daemon with a flapping transport."""

    def __init__(self, body, *, failures):
        super().__init__(daemon=True)
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}"
        self.body = json.dumps(body).encode("utf-8")
        self.failures = failures
        self.connections = 0
        self._halt = threading.Event()

    def run(self):
        self.sock.settimeout(0.1)
        while not self._halt.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            self.connections += 1
            if self.connections <= self.failures:
                conn.close()
                continue
            try:
                conn.settimeout(2.0)
                buf = b""
                while b"\r\n\r\n" not in buf:
                    data = conn.recv(65536)
                    if not data:
                        break
                    buf += data
                head, _, rest = buf.partition(b"\r\n\r\n")
                length = 0
                for line in head.decode("latin-1").split("\r\n")[1:]:
                    name, _, value = line.partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                while len(rest) < length:
                    data = conn.recv(65536)
                    if not data:
                        break
                    rest += data
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(self.body)).encode() + b"\r\n"
                    b"Connection: close\r\n\r\n" + self.body
                )
            except OSError:
                pass
            finally:
                conn.close()

    def stop(self):
        self._halt.set()
        self.join(timeout=2.0)
        self.sock.close()


@pytest.fixture()
def flaky_server(request):
    body, failures = request.param
    server = _FlakyServer(body, failures=failures)
    server.start()
    yield server
    server.stop()


def _client(server, *, attempts):
    # connect_timeout_s=None skips the connect probe so each transport
    # attempt costs the fake server exactly one connection.
    return ServeClient(
        server.url,
        timeout=5.0,
        connect_timeout_s=None,
        retry=RetryPolicy(attempts, base_delay_s=0.01, max_delay_s=0.05),
    )


@pytest.mark.parametrize(
    "flaky_server", [({"status": "ok"}, 2)], indirect=True
)
def test_idempotent_get_retries_past_transport_faults(flaky_server):
    assert _client(flaky_server, attempts=3).health() == {"status": "ok"}
    assert flaky_server.connections == 3


@pytest.mark.parametrize(
    "flaky_server", [({"id": "abc", "profile": {}}, 1)], indirect=True
)
def test_idempotent_post_merge_retries(flaky_server):
    # POST /merge is content-addressed, hence safe to resend.
    result = _client(flaky_server, attempts=3).merge(["a", "b"])
    assert result["id"] == "abc"
    assert flaky_server.connections == 2


@pytest.mark.parametrize(
    "flaky_server", [({"job": {"id": "never"}}, 100)], indirect=True
)
def test_job_submission_is_never_retried(flaky_server):
    # A lost /jobs response may still have been accepted; a retry would
    # double-run the job, so the client must fail after one attempt.
    with pytest.raises(ServeError, match="after 1 attempt"):
        _client(flaky_server, attempts=5).submit("pprint", scale=0.01)
    time.sleep(0.05)
    assert flaky_server.connections == 1


@pytest.mark.parametrize(
    "flaky_server", [({"status": "ok"}, 100)], indirect=True
)
def test_retry_budget_is_bounded(flaky_server):
    with pytest.raises(ServeError, match="after 2 attempt"):
        _client(flaky_server, attempts=2).health()
    assert flaky_server.connections == 2


def test_dead_host_fails_within_the_connect_timeout():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here any more
    client = ServeClient(
        f"http://127.0.0.1:{port}",
        timeout=30.0,
        connect_timeout_s=0.5,
        retry=RetryPolicy(1),
    )
    started = time.monotonic()
    with pytest.raises(ServeError, match="cannot reach daemon"):
        client.health()
    # Refused/timed-out connect must not consume the 30s read budget.
    assert time.monotonic() - started < 5.0


# -- pagination --------------------------------------------------------

STORED = 12


@pytest.fixture(scope="module")
def base_profile():
    return ProfileData.from_json(
        execute_job(
            {
                "id": "scale-base",
                "workload": "pprint",
                "profiler": "scalene",
                "mode": "cpu",
                "scale": 0.05,
                "config": {},
            }
        )
    )


@pytest.fixture(scope="module")
def paged_client(tmp_path_factory, base_profile):
    root = tmp_path_factory.mktemp("paged-store")
    store = ProfileStore(root)
    for index in range(STORED):
        variant = copy.deepcopy(base_profile)
        variant.elapsed *= 1.0 + index * 1e-4  # distinct content ids
        store.put(
            variant,
            workload="pprint",
            profiler="scalene",
            config={"mode": "cpu", "scale": 0.05, "overrides": {}},
            created_at=float(index),
        )
    daemon = ProfileDaemon(store, workers=1)
    daemon.start()
    yield ServeClient(daemon.url)
    daemon.stop()


def test_profiles_listing_pages(paged_client):
    page = paged_client.profiles_page(workload="pprint", limit=5)
    assert page["total"] == STORED
    assert page["limit"] == 5 and page["offset"] == 0
    assert len(page["profiles"]) == 5

    rest = paged_client.profiles_page(workload="pprint", limit=5, offset=5)
    assert rest["offset"] == 5
    first_ids = {entry["id"] for entry in page["profiles"]}
    rest_ids = {entry["id"] for entry in rest["profiles"]}
    assert not first_ids & rest_ids

    everything = paged_client.profiles_page(workload="pprint", limit=0)
    assert len(everything["profiles"]) == STORED


def test_profiles_pages_tile_the_full_listing(paged_client):
    everything = paged_client.profiles_page(workload="pprint", limit=0)["profiles"]
    paged = []
    for offset in range(0, STORED, 4):
        paged.extend(
            paged_client.profiles_page(workload="pprint", limit=4, offset=offset)[
                "profiles"
            ]
        )
    assert [e["id"] for e in paged] == [e["id"] for e in everything]


def test_trend_pages_in_both_sketch_and_exact_modes(paged_client):
    for exact in (None, 1):
        page = paged_client.trend(workload="pprint", limit=5, exact=exact)
        assert page["limit"] == 5 and page["offset"] == 0
        assert len(page["trend"]) == 5
        rest = paged_client.trend(workload="pprint", limit=5, offset=5, exact=exact)
        assert page["trend"] != rest["trend"]


def test_bad_page_params_are_rejected(paged_client):
    with pytest.raises(ServeError, match="limit/offset"):
        paged_client.profiles_page(workload="pprint", limit=-1)
    with pytest.raises(ServeError, match="limit/offset"):
        paged_client.trend(workload="pprint", offset=-3)


# -- gateway routed reads ----------------------------------------------


@pytest.fixture(scope="module")
def gateway_plane(tmp_path_factory):
    plane = ShardPlane(tmp_path_factory.mktemp("gw-plane"), shards=2, workers=1)
    router = plane.start()
    gateway = ServeFrontend(router, poll_interval_s=0.1)
    gateway.start()
    yield plane, ServeClient(gateway.url)
    gateway.stop()
    plane.stop()


def test_gateway_accepts_batches_and_completes_jobs(gateway_plane):
    plane, client = gateway_plane
    jobs = [
        client.submit("pprint", mode="cpu", scale=0.02),
        client.submit("fannkuch", mode="cpu", scale=0.02),
    ]
    assert all(job["id"].startswith("gw-") for job in jobs)
    done = [client.wait(job["id"], timeout=120.0) for job in jobs]
    assert all(job["status"] == "done" and job["profile_id"] for job in done)

    # Routed read: the profile is fetched from the key's primary shard.
    envelope = client.profile(done[0]["profile_id"])
    assert envelope["id"] == done[0]["profile_id"]
    trend = client.trend(workload="pprint")
    assert trend.get("degraded") in (None, False)
    assert len(trend["trend"]) >= 1

    health = client.health()
    assert health["role"] == "gateway"
    assert health["jobs"]["done"] >= 2
    assert sorted(health["shards"]["live"]) == sorted(plane.daemons)


def test_gateway_forwards_query_values_url_encoded(gateway_plane):
    # Values a URL must escape (a space, a '#') reach the shard intact,
    # so the gateway answers what the shard answers.
    plane, client = gateway_plane
    shard_url = plane.daemons[plane.router.route("a b", "")[0]].url
    for path in ("/profiles?workload=a%20b", "/trend?workload=a%20b"):
        status, answer = _send(client.url, "GET", path)
        assert status == 200, (path, answer)
        _, direct = _send(shard_url, "GET", path)
        key = "profiles" if path.startswith("/profiles") else "trend"
        assert answer[key] == direct[key] == []
    # A '#' cut short would drop "exact=1" and answer from the sketch.
    status, answer = _send(
        client.url, "GET", "/trend?workload=pprint&config_hash=x%23y&exact=1"
    )
    assert status == 200 and answer["source"] == "exact", answer
    # The client encodes its filters too.
    assert client.profiles_page(workload="a b")["profiles"] == []
    assert client.trend(workload="a b", config_hash="x#y", exact=1)["trend"] == []


def test_gateway_rejects_malformed_submissions(gateway_plane):
    _, client = gateway_plane
    with pytest.raises(ServeError):
        client._request("/jobs", body={"scale": 0.01})  # no workload
    with pytest.raises(ServeError):
        client._request("/no-such-endpoint")


def test_bad_submission_leaves_the_gateway_serving(gateway_plane):
    # Validation errors from the workload registry and the fault plane
    # are answered like any other bad request; the gateway keeps going.
    _, client = gateway_plane
    with pytest.raises(ServeError, match="unknown workload"):
        client._request("/jobs", body={"workload": "no-such-workload"})
    with pytest.raises(ServeError, match="bogus"):
        client._request("/jobs", body={"workload": "pprint", "faults": {"bogus": 1}})
    assert client.health()["status"] == "ok"


# -- one HTTP stack for both roles --------------------------------------


def _send(url, method, path, body=b"", length=None):
    """One request on a fresh connection: ``(status, parsed JSON body)``."""
    parsed = urlparse(url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)
    try:
        conn.putrequest(method, path)
        conn.putheader("Content-Length", str(len(body) if length is None else length))
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.mark.parametrize("role", ["daemon", "gateway"])
def test_both_roles_answer_errors_alike(request, role):
    if role == "daemon":
        url, paged = request.getfixturevalue("paged_client").url, "/profiles"
    else:
        url, paged = request.getfixturevalue("gateway_plane")[1].url, "/jobs"
    table = [
        ("GET", "/no-such-endpoint", b"", None, 404),
        ("POST", "/jobs", b"{not json", None, 400),
        ("POST", "/jobs", b"[1, 2]", None, 400),
        ("POST", "/jobs", b"", 70_000_000, 413),  # refused before any body
        ("GET", f"{paged}?limit=x", b"", None, 400),
    ]
    for method, path, body, length, expected in table:
        status, payload = _send(url, method, path, body, length)
        assert status == expected, (method, path, payload)
        assert "error" in payload, (method, path, payload)


def test_gateway_answers_shard_failure_502_and_busy_reshard_409(monkeypatch):
    monkeypatch.setattr(frontend_module, "_SHARD_TIMEOUT_S", 2.0)
    router = ShardRouter({"s0": "http://127.0.0.1:9"})  # nothing listens there
    gateway = ServeFrontend(router)
    gateway.plane = object()  # resharding needs a plane; the 409 comes first
    gateway._reshard = {"action": "add", "state": "migrating"}
    gateway.start()
    try:
        status, payload = _send(gateway.url, "GET", "/trend?workload=pprint")
        assert status == 502 and "error" in payload
        status, payload = _send(gateway.url, "POST", "/reshard", b'{"action": "add"}')
        assert status == 409 and "in progress" in payload["error"]
    finally:
        gateway.stop()
