"""The scheduling daemon: HTTP/JSON transport around a service session.

::

    python -m repro.service --port 8643 --token s3cret --processors 40

Layering mirrors :mod:`repro.engine.broker_server` deliberately:

* :class:`~repro.service.api.ServiceAPI` (re-exported here) —
  ``handle(op, data)`` dispatch over decoded JSON documents.  This *is*
  the in-process transport seam: the replay harness and the unit tests
  drive the exact objects the HTTP handler does, so socket tests pin
  only framing/auth, not scheduling.
* :class:`ServiceServer` — the shared stdlib JSON-over-HTTP server
  (:mod:`repro._jsonhttp`: bearer token compared in constant time,
  body cap, error mapping) routing ``POST /api/submit``,
  ``POST /api/cancel``, ``POST /api/drain``, ``GET /api/jobs``,
  ``GET /api/schedule``, ``GET /metrics`` and ``GET /status`` to the
  API, with in-process start/shutdown for tests plus the blocking
  ``serve_forever`` used by ``main``.
* :func:`main` — the daemon entrypoint.  SIGTERM/SIGINT flip a drain
  flag: the listener refuses new submissions, every accepted job runs
  to completion (fast-forwarding the virtual timeline — the engine
  needs no wall time to finish), a drain summary is printed, exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
from typing import Optional, Sequence

from .._jsonhttp import JSONServer
from ..cluster import Cluster
from .api import SCHEMA_VERSION, ServiceAPI
from .clock import VirtualClock, WallClock
from .horizon import OnlineEngine
from .session import ServiceSession

__all__ = ["SCHEMA_VERSION", "ServiceAPI", "ServiceServer", "main"]

#: Request bodies are tiny job documents; cap hard.
MAX_BODY_BYTES = 1024 * 1024


#: Routes -> operations; GET routes are not reachable over POST.
_ROUTES = {
    ("POST", "/api/submit"): "submit",
    ("POST", "/api/cancel"): "cancel",
    ("POST", "/api/drain"): "drain",
    ("GET", "/api/jobs"): "jobs",
    ("GET", "/api/schedule"): "schedule",
    ("GET", "/metrics"): "metrics",
    ("GET", "/api/metrics"): "metrics",
    ("GET", "/status"): "status",
    ("GET", "/api/status"): "status",
}


class ServiceServer(JSONServer):
    """One scheduling daemon: engine + session + threaded HTTP listener.

    ``listen`` takes :class:`~repro._jsonhttp.JSONServer`'s ``host``,
    ``port``, ``token`` and ``verbose``.
    """

    def __init__(self, session: ServiceSession, **listen):
        self.session = session
        super().__init__(
            ServiceAPI(session), _ROUTES, max_body=MAX_BODY_BYTES, **listen
        )


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
