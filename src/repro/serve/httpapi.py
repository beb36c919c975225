"""The one HTTP stack behind both serve roles, shard daemon and gateway.

A role is a route table: ``(method, *path parts)`` → handler, where a
final ``"*"`` part matches one path segment (``("GET", "jobs", "*")``
serves ``/jobs/<id>``). A handler takes a :class:`Request` and returns
the JSON payload, or ``(status, payload)``; a ``str`` payload is sent
as HTML. Errors become ``{"error": ...}`` answers: :class:`HttpError`
with its own status, ``StoreError`` 404, any other ``ReproError`` 400,
anything else 500.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, NamedTuple, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError, ServeError, StoreError

#: A declared body above this is refused (413) before any of it is read.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Listing endpoints cap their payload unless the caller pages
#: explicitly; ``limit=0`` requests everything.
DEFAULT_PAGE_LIMIT = 500


class HttpError(ServeError):
    """A failure answered with its own status (404, 409, 502, ...)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Request(NamedTuple):
    """One parsed request, as a route handler sees it."""

    parts: List[str]
    query: Dict[str, str]
    body: bytes

    def json(self) -> Dict:
        return json_object(self.body)


Routes = Dict[Tuple[str, ...], Callable[[Request], object]]


def json_object(raw: bytes) -> Dict:
    """Parse a request body that must be one JSON object."""
    if not raw:
        raise ServeError("request body must be a JSON object")
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise ServeError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ServeError("request body must be a JSON object")
    return payload


def page_params(query: Dict[str, str]) -> Tuple[int, int]:
    """``(limit, offset)`` from a listing query; bad values are a 400."""
    try:
        limit = int(query.get("limit", DEFAULT_PAGE_LIMIT))
        offset = int(query.get("offset", 0))
    except ValueError as exc:
        raise ServeError(f"limit/offset must be integers: {exc}") from None
    if limit < 0 or offset < 0:
        raise ServeError("limit/offset must be non-negative")
    return limit, offset


def paginate(items: List, limit: int, offset: int) -> List:
    items = items[offset:] if offset else items
    return items[:limit] if limit else items


class JsonServer(ThreadingHTTPServer):
    """A threaded JSON server over one route table.

    Tracks its open connections so :meth:`close` can sever kept-alive
    ones; without that a stopped server would keep answering on them.
    """

    daemon_threads = True
    request_queue_size = 512

    def __init__(self, address: Tuple[str, int], routes: Routes) -> None:
        self.routes = routes
        self._open: set = set()
        self._open_lock = threading.Lock()
        self._serving = False
        super().__init__(address, _Handler)

    def start(self, name: str) -> threading.Thread:
        """Serve on a daemon thread; returns it for the owner to join."""
        self._serving = True
        thread = threading.Thread(target=self.serve_forever, name=name, daemon=True)
        thread.start()
        return thread

    def get_request(self):
        sock, address = super().get_request()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._open_lock:
            self._open.add(sock)
        return sock, address

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        """Report a failed request, unless the peer hung up on it."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def close(self) -> None:
        """Stop serving, release the port, and sever open connections."""
        if self._serving:
            self._serving = False
            self.shutdown()
        # Worker processes forked later inherit the listening socket;
        # closing only this descriptor would leave the port accepting
        # connects that nobody serves.
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.server_close()
        with self._open_lock:
            severed, self._open = self._open, set()
        for sock in severed:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass  # keep the test/CI output clean

    def do_GET(self) -> None:  # noqa: N802 — stdlib casing
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 — stdlib casing
        self._route("POST")

    def _route(self, method: str) -> None:
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True  # the unread body cannot be skipped
            self._reply(413, {"error": f"Content-Length must be 0..{MAX_BODY_BYTES}"})
            return
        request = Request(
            parts,
            {k: v[0] for k, v in parse_qs(url.query).items()},
            self.rfile.read(length) if length else b"",
        )
        routes = self.server.routes
        handler = routes.get((method, *parts))
        if handler is None and len(parts) == 2:
            handler = routes.get((method, parts[0], "*"))
        try:
            if handler is None:
                raise HttpError(404, f"unknown endpoint {method} {url.path}")
            result = handler(request)
            status, payload = result if isinstance(result, tuple) else (200, result)
        except HttpError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except StoreError as exc:
            status, payload = 404, {"error": str(exc)}
        except ReproError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — every request gets an answer
            traceback.print_exc()  # a 500 is a bug: keep its trace
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._reply(status, payload)

    def _reply(self, status: int, payload) -> None:
        if isinstance(payload, str):
            data, content_type = payload.encode("utf-8"), "text/html"
        else:
            data = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)
