"""One stdlib JSON-over-HTTP server, shared by the broker and the service.

:class:`JSONServer` wraps an *API object* — anything with
``handle(op, data) -> dict`` over decoded JSON documents — in a
threaded HTTP listener:

* bearer-token auth, compared in constant time (``hmac.compare_digest``);
  no token means an open server;
* a ``(method, path) -> op`` route table; anything else is a 404;
* POST bodies must carry a sane ``Content-Length`` (400), fit under the
  server's body cap (413), arrive without a :data:`READ_TIMEOUT_S`
  stall (408) and decode to a JSON object (400);
* one exception-to-status map for what ``handle`` raises:
  ``ReproError``, ``KeyError`` (a missing field), ``TypeError`` and
  ``ValueError`` are a 400, any other ``LookupError`` (an unknown
  operation) is a 404, and ``OSError`` is a 500;
* the start / ``serve_forever`` / ``interrupt`` / ``shutdown`` /
  ``close_socket`` lifecycle.

The body cap is the one value that differs between servers.
"""

from __future__ import annotations

import hmac
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple

from .exceptions import ReproError

__all__ = ["JSONServer", "READ_TIMEOUT_S"]

#: Seconds one read of a request (its headers or its body) may wait for
#: bytes.  A client that announces more body than it sends would
#: otherwise hold a handler thread for as long as it keeps the
#: connection open.  Fixed, not a server option: no legitimate client
#: stalls this long mid-request.
READ_TIMEOUT_S = 10.0


class _Handler(BaseHTTPRequestHandler):
    """JSON framing around the server's API object."""

    server_version = "repro/1"
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        # StreamRequestHandler applies ``timeout`` to the connection;
        # read per connection, so the module constant stays the one knob.
        self.timeout = READ_TIMEOUT_S
        super().setup()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._serve("POST")

    def _serve(self, method: str) -> None:
        owner: JSONServer = self.server.owner
        if not owner.authorized(self.headers.get("Authorization")):
            self._refuse(401, "unauthorized")
            return
        op = owner.routes.get((method, self.path))
        if op is None:
            self._refuse(404, f"unknown path {self.path!r}")
            return
        data = self._read_body(owner.max_body) if method == "POST" else {}
        if data is None:
            return
        try:
            body = owner.api.handle(op, data)
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": f"bad request: {exc!r}"})
        except LookupError:
            self._reply(404, {"error": f"unknown operation {op!r}"})
        except OSError as exc:
            self._reply(500, {"error": f"I/O failed: {exc!r}"})
        else:
            self._reply(200, body)

    def _read_body(self, max_body: int) -> Optional[Dict[str, Any]]:
        """The request's JSON object, or ``None`` once an error is sent."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up.
            self._refuse(400, "bad Content-Length")
            return None
        if length > max_body:
            self._refuse(413, "request body too large")
            return None
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:  # fewer body bytes than Content-Length said
            self._refuse(408, "request body timed out")
            return None
        try:
            data = json.loads(raw) if raw else {}
        except (ValueError, RecursionError):  # deep nesting overflows
            self._reply(400, {"error": "request body is not JSON"})
            return None
        if not isinstance(data, dict):
            self._reply(400, {"error": "request body must be a JSON object"})
            return None
        return data

    def _refuse(self, status: int, error: str) -> None:
        """Reply without reading the body, so drop the connection after:
        an unread body would desync a kept-alive one."""
        self.close_connection = True
        self._reply(status, {"error": error})

    def _reply(self, status: int, body: Dict) -> None:
        payload = json.dumps(body).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # the client hung up mid-response; nothing to salvage

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Per-request logging only under ``verbose``."""
        if self.server.owner.verbose:  # pragma: no cover
            BaseHTTPRequestHandler.log_message(self, format, *args)


class JSONServer:
    """A threaded JSON-over-HTTP listener around one API object.

    Usable in-process for tests and examples (:meth:`start` /
    :meth:`shutdown`) and blocking from a daemon's ``main``
    (:meth:`serve_forever`, stopped from a signal handler by
    :meth:`interrupt`, then :meth:`close_socket`).
    """

    def __init__(
        self,
        api: Any,
        routes: Mapping[Tuple[str, str], str],
        *,
        max_body: int,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        verbose: bool = False,
    ):
        self.api = api
        self.routes = routes
        self.max_body = max_body
        self.host = host
        self.token = token
        self.verbose = verbose
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.owner = self
        self._thread: Optional[threading.Thread] = None

    def authorized(self, header: Optional[str]) -> bool:
        """Whether an ``Authorization`` header carries the bearer token."""
        if not self.token:
            return True
        return header is not None and hmac.compare_digest(
            header, f"Bearer {self.token}"
        )

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` auto-assignment)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """The base URL clients should connect to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> str:
        """Serve on a daemon thread; returns the base URL."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self.url

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``main`` path)."""
        self._httpd.serve_forever(poll_interval=0.2)

    def interrupt(self) -> None:
        """Make a blocking :meth:`serve_forever` return (signal-safe)."""
        threading.Thread(target=self._httpd.shutdown, daemon=True).start()

    def shutdown(self) -> None:
        """Stop a :meth:`start`-ed server and release the socket."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def close_socket(self) -> None:
        """Release the listening socket (after ``serve_forever`` returns)."""
        self._httpd.server_close()
