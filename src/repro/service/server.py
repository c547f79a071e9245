"""The scheduling daemon: HTTP/JSON transport around a service session.

::

    python -m repro.service --port 8643 --token s3cret --processors 40

Layering mirrors :mod:`repro.engine.broker_server` deliberately:

* :class:`ServiceAPI` — ``handle(op, data)`` dispatch over decoded JSON
  documents.  This *is* the in-process transport seam: the replay
  harness and the unit tests drive the exact objects the HTTP handler
  does, so socket tests pin only framing/auth, not scheduling.
* ``_Handler`` — stdlib HTTP framing: ``POST /api/submit``,
  ``POST /api/cancel``, ``GET /api/jobs``, ``GET /api/schedule``,
  ``GET /metrics``, ``GET /status``; bearer token compared in constant
  time.
* :class:`ServiceServer` — in-process start/shutdown for tests plus the
  blocking ``serve_forever`` used by ``main``.
* :func:`main` — the daemon entrypoint.  SIGTERM/SIGINT flip a drain
  flag: the listener refuses new submissions, every accepted job runs
  to completion (fast-forwarding the virtual timeline — the engine
  needs no wall time to finish), a drain summary is printed, exit 0.
"""

from __future__ import annotations

import argparse
import hmac
import json
import os
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Sequence

from ..cluster import Cluster
from ..exceptions import ConfigurationError, ReproError
from .clock import VirtualClock, WallClock
from .horizon import OnlineEngine
from .session import ServiceSession

__all__ = ["SCHEMA_VERSION", "ServiceAPI", "ServiceServer", "main"]

#: Version of the service operation set.  Bump on incompatible changes.
SCHEMA_VERSION = 1

#: Request bodies are tiny job documents; cap hard.
MAX_BODY_BYTES = 1024 * 1024


class ServiceAPI:
    """Operation dispatch over one :class:`ServiceSession`.

    Every operation takes and returns plain JSON-safe dicts; transport
    concerns (HTTP framing, auth, sockets) stay in the handler class.
    ``handle`` raises ``LookupError`` for unknown operations and
    :class:`~repro.exceptions.ReproError` subclasses for bad requests —
    the HTTP layer maps those to 404/400.
    """

    def __init__(self, session: ServiceSession):
        self.session = session

    def handle(self, op: str, data: Dict) -> Dict:
        handler = getattr(self, f"_op_{op}", None)
        if handler is None or not op.islower() or op.startswith("_"):
            raise LookupError(op)
        return handler(data)

    # -- operations ----------------------------------------------------------
    def _op_submit(self, data: Dict) -> Dict:
        try:
            size = float(data["size"])
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(
                "submit requires a numeric 'size' field"
            ) from None
        checkpoint_cost = data.get("checkpoint_cost")
        if checkpoint_cost is not None:
            checkpoint_cost = float(checkpoint_cost)
        job_id = data.get("job_id")
        if job_id is not None and not isinstance(job_id, str):
            raise ConfigurationError("job_id must be a string")
        return {"job": self.session.submit(size, checkpoint_cost, job_id)}

    def _op_cancel(self, data: Dict) -> Dict:
        job_id = data.get("job_id")
        if not isinstance(job_id, str):
            raise ConfigurationError("cancel requires a string 'job_id'")
        return self.session.cancel(job_id)

    def _op_jobs(self, data: Dict) -> Dict:
        return {"jobs": self.session.jobs()}

    def _op_schedule(self, data: Dict) -> Dict:
        return self.session.schedule()

    def _op_metrics(self, data: Dict) -> Dict:
        return self.session.metrics()

    def _op_status(self, data: Dict) -> Dict:
        engine = self.session.engine
        return {
            "schema_version": SCHEMA_VERSION,
            "policy": engine.policy.name,
            "processors": engine.cluster.processors,
            "seed": engine.seed,
            "draining": self.session.draining,
            "now": engine.now,
            "jobs_total": len(engine.jobs),
            "queue_depth": len(engine.queued_jobs),
        }

    def _op_drain(self, data: Dict) -> Dict:
        return self.session.drain()


#: GET routes -> operations (POST uses /api/<op> directly).
_GET_ROUTES = {
    "/api/jobs": "jobs",
    "/api/schedule": "schedule",
    "/metrics": "metrics",
    "/api/metrics": "metrics",
    "/status": "status",
    "/api/status": "status",
}

#: Operations reachable over POST.
_POST_OPS = frozenset({"submit", "cancel", "drain"})


class _Handler(BaseHTTPRequestHandler):
    """JSON framing around a :class:`ServiceAPI`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if not self.server.check_auth(self.headers.get("Authorization")):
            self._reply(401, {"error": "unauthorized"})
            return
        if not self.path.startswith("/api/"):
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        op = self.path[len("/api/"):]
        if op not in _POST_OPS:
            self._reply(404, {"error": f"unknown operation {op!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up, and
            # the unread body would desync a kept-alive connection.
            self.close_connection = True
            self._reply(400, {"error": "bad Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            self._reply(413, {"error": "request body too large"})
            return
        raw = self.rfile.read(length) if length else b""
        try:
            data = json.loads(raw) if raw else {}
        except ValueError:
            self._reply(400, {"error": "request body is not JSON"})
            return
        if not isinstance(data, dict):
            self._reply(400, {"error": "request body must be a JSON object"})
            return
        self._dispatch(op, data)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if not self.server.check_auth(self.headers.get("Authorization")):
            self._reply(401, {"error": "unauthorized"})
            return
        op = _GET_ROUTES.get(self.path)
        if op is None:
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        self._dispatch(op, {})

    def _dispatch(self, op: str, data: Dict) -> None:
        try:
            body = self.server.api.handle(op, data)
        except LookupError:
            self._reply(404, {"error": f"unknown operation {op!r}"})
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})
        except (KeyError, TypeError, ValueError) as exc:
            self._reply(400, {"error": f"bad request: {exc!r}"})
        else:
            self._reply(200, body)

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
        if getattr(self.server, "verbose", False):  # pragma: no cover
            BaseHTTPRequestHandler.log_message(self, format, *args)


class ServiceServer:
    """One scheduling daemon: engine + session + threaded HTTP listener."""

    def __init__(
        self,
        session: ServiceSession,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        verbose: bool = False,
    ):
        self.session = session
        self.api = ServiceAPI(session)
        self.host = host
        self.token = token
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.api = self.api
        self._httpd.verbose = verbose

        def check_auth(header: Optional[str]) -> bool:
            if not token:
                return True
            return header is not None and hmac.compare_digest(
                header, f"Bearer {token}"
            )

        self._httpd.check_auth = check_auth
        self._thread: Optional[threading.Thread] = None

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
        """Serve on the calling thread (the ``__main__`` path)."""
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


def build_session(args: argparse.Namespace) -> ServiceSession:
    """Session from parsed daemon arguments (shared with ``repro serve``)."""
    cluster = Cluster.with_mtbf_years(
        args.processors, args.mtbf_years, downtime=args.downtime
    )
    engine = OnlineEngine(
        cluster,
        args.policy,
        seed=args.seed,
        inject_faults=not args.no_faults,
    )
    if args.virtual_clock:
        clock = VirtualClock()
    else:
        clock = WallClock(time_scale=args.time_scale)
    return ServiceSession(engine, clock)


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """The daemon's knobs (shared by ``__main__`` and ``repro serve``)."""
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8643,
        help="TCP port (default 8643; 0 picks a free one)",
    )
    parser.add_argument(
        "--token",
        default=None,
        help=(
            "bearer token clients must present "
            "(default: $REPRO_SERVICE_TOKEN; empty = unauthenticated)"
        ),
    )
    parser.add_argument(
        "--processors",
        "-p",
        type=int,
        default=40,
        help="platform width p (default 40)",
    )
    parser.add_argument(
        "--mtbf-years",
        type=float,
        default=10.0,
        help="per-processor MTBF in years (default 10)",
    )
    parser.add_argument(
        "--downtime",
        type=float,
        default=60.0,
        help="downtime D in seconds (default 60)",
    )
    parser.add_argument(
        "--policy",
        default="ig-el",
        help="redistribution policy (default ig-el)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="failure-stream seed (default 0)",
    )
    parser.add_argument(
        "--no-faults",
        action="store_true",
        help="fault-free platform (checkpoint overhead kept)",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1.0e6,
        help=(
            "simulated seconds per wall second (default 1e6 — the "
            "paper's 1e6-second packs progress in real time)"
        ),
    )
    parser.add_argument(
        "--virtual-clock",
        action="store_true",
        help=(
            "freeze time (moves only on drain); for harnesses driving "
            "the daemon deterministically"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log requests and print /metrics on drain",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entrypoint: ``python -m repro.service``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Rolling-horizon co-scheduling daemon: submit jobs over "
            "token-authenticated HTTP/JSON, watch them re-packed and "
            "redistributed online; SIGTERM drains gracefully."
        ),
    )
    add_service_arguments(parser)
    return run_service(parser.parse_args(argv))


def run_service(args: argparse.Namespace) -> int:
    """Serve until SIGTERM/SIGINT, then drain (shared with ``repro serve``)."""
    token = (
        args.token
        if args.token is not None
        else os.environ.get("REPRO_SERVICE_TOKEN")
    )
    session = build_session(args)
    server = ServiceServer(
        session,
        host=args.host,
        port=args.port,
        token=token,
        verbose=args.verbose,
    )

    stop = {"signal": None}

    def _on_signal(signum, frame):  # pragma: no cover - signal path
        stop["signal"] = signum
        server.interrupt()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    print(
        f"scheduling service on {server.url} "
        f"(p={args.processors}, policy={args.policy}, "
        f"auth: {'token' if token else 'open'})",
        flush=True,
    )
    server.serve_forever()

    # Drain: refuse new work, run everything accepted to completion.
    summary = session.drain()
    if args.verbose:
        print(json.dumps(session.metrics(), indent=2, sort_keys=True))
    print(
        "service drained: "
        f"{summary['completed']} completed, "
        f"{summary['cancelled']} cancelled, "
        f"{len(summary['lost'])} lost "
        f"(t={summary['drained_at']:.6g})",
        flush=True,
    )
    server.close_socket()
    return 0 if not summary["lost"] else 1


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    raise SystemExit(main())
