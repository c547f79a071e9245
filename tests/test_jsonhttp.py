"""Hostile bodies against the one JSON server under both HTTP surfaces.

``repro._jsonhttp.JSONServer`` serves the broker server and the
service daemon; a body it cannot parse must get a 400 reply on either,
never a dropped connection, and a body that stops arriving a 408.
"""

import json
import socket
import urllib.parse

import pytest

from conftest import raw_post
from repro import _jsonhttp
from repro.engine.broker import FileBroker
from repro.engine.broker_server import BrokerServer
from repro.service import (
    ReplayConfig,
    ServiceServer,
    ServiceSession,
    VirtualClock,
)

TOKEN = "jsonhttp-test-token"


def _broker_server(tmp_path):
    server = BrokerServer(FileBroker(tmp_path / "spool"), token=TOKEN)
    return server, "/api/claim"


def _service_server(tmp_path):
    engine = ReplayConfig(processors=8).engine()
    server = ServiceServer(ServiceSession(engine, VirtualClock()), token=TOKEN)
    return server, "/api/submit"


@pytest.fixture(
    params=[_broker_server, _service_server], ids=["broker", "service"]
)
def server(request, tmp_path):
    """``(url, POST path)`` of a live server, shut down afterwards."""
    server, path = request.param(tmp_path)
    url = server.start()
    try:
        yield url, path
    finally:
        server.shutdown()


def test_deeply_nested_body_is_400(server):
    # 200 KB of "[" fits under both body caps but overflows the JSON
    # decoder's recursion limit.
    url, path = server
    status, body = raw_post(url, path, b"[" * 200_000, token=TOKEN)
    assert status == 400 and "not JSON" in body["error"]
    # The listener is still healthy afterwards.
    status, body = raw_post(url, path, b"[1]", token=TOKEN)
    assert status == 400 and "JSON object" in body["error"]


def test_short_body_times_out_with_408(server, monkeypatch):
    # Content-Length promises 100 bytes, the client sends 8 and then
    # keeps the connection open: the handler must give up after the
    # read timeout, answer 408 and close, instead of blocking forever.
    monkeypatch.setattr(_jsonhttp, "READ_TIMEOUT_S", 0.3)
    url, path = server
    parts = urllib.parse.urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {parts.hostname}\r\n"
            f"Authorization: Bearer {TOKEN}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: 100\r\n\r\n".encode()
            + b'{"a": 1,'
        )
        reply = b""
        while chunk := sock.recv(4096):  # b"" once the server closes
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split(b" ")[1] == b"408"
    assert json.loads(body) == {"error": "request body timed out"}
    # The listener still serves the next client.
    status, body = raw_post(url, path, b"[1]", token=TOKEN)
    assert status == 400 and "JSON object" in body["error"]
