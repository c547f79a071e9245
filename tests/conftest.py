"""Shared fixtures: small packs/clusters sized so tests run in milliseconds."""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Callable, Optional, Tuple, TypeVar

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.resilience import ExpectedTimeModel, ResilienceModel
from repro.tasks import WorkloadGenerator, uniform_pack
from repro.units import years

#: Small-scale workload bounds (seconds-scale tasks, see Scale presets).
M_INF, M_SUP = 6_000.0, 10_000.0

T = TypeVar("T")


def wait_for(
    condition: Callable[[], T],
    *,
    timeout: float = 5.0,
    interval: float = 0.005,
    message: str = "condition",
) -> T:
    """Deadline-poll a predicate; return its first truthy value.

    The hygiene replacement for bare ``time.sleep`` in fabric/HTTP
    suites: a fixed sleep is either too short (flaky) or too long (slow
    for everyone, forever); a deadline poll returns the moment the
    condition holds and fails loudly when it never does.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = condition()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"timed out after {timeout:g}s waiting for {message}"
            )
        time.sleep(interval)


def raw_post(
    url: str,
    path: str,
    body: bytes = b"",
    *,
    token: Optional[str] = None,
    content_length: Optional[int] = None,
    timeout: float = 5.0,
) -> Tuple[int, dict]:
    """POST raw bytes over a real socket; returns ``(status, JSON body)``.

    Unlike a JSON client this sends exactly ``body`` — ``NaN`` literals,
    non-object documents — and ``content_length`` overrides the header,
    so a test can send a length that lies about the body.  A server
    that never answers raises ``TimeoutError`` after ``timeout``.
    """
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        length = len(body) if content_length is None else content_length
        conn.putheader("Content-Length", str(length))
        if token is not None:
            conn.putheader("Authorization", f"Bearer {token}")
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_pack():
    """Eight tasks with heterogeneous small sizes."""
    return uniform_pack(8, m_inf=M_INF, m_sup=M_SUP, seed=42)


@pytest.fixture
def small_cluster() -> Cluster:
    """40 processors, MTBF scaled to the small task sizes (~0.02 years)."""
    return Cluster.with_mtbf_years(40, 0.02)


@pytest.fixture
def reliable_cluster() -> Cluster:
    """40 processors, failures essentially never happen (MTBF 1000 years)."""
    return Cluster.with_mtbf_years(40, 1000.0)


@pytest.fixture
def model(small_pack, small_cluster) -> ExpectedTimeModel:
    return ExpectedTimeModel(small_pack, small_cluster)


@pytest.fixture
def reliable_model(small_pack, reliable_cluster) -> ExpectedTimeModel:
    return ExpectedTimeModel(small_pack, reliable_cluster)


@pytest.fixture
def generator() -> WorkloadGenerator:
    return WorkloadGenerator(m_inf=M_INF, m_sup=M_SUP)
