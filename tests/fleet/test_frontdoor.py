"""The front door refuses a bad ``POST /query`` with a reply, promptly,
and owns its kept connections.

No shard is spawned: every request here must be refused before the
handler reaches the fleet, which is a stub that fails the request if it
is touched (the mid-flight disconnect case has its own stub).  Each
case speaks raw HTTP over a socket it keeps open, so a handler that
reads until the client closes (``rfile.read(-1)``), reads a huge
declared body, or drops the connection without a status line fails by
the 2 s read timeout or by an empty read.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.fleet import FleetAnswer, FleetServer
from repro.fleet.protocol import MAX_FRAME_BYTES
from repro.obs import SpanTracer
from repro.relational import tpcds_like_schema

QUERY = "SELECT sum(sales_price) WHERE date.year IN [0, 2)"


class UnreachableFleet:
    """Stands in for a fleet that no refused request may reach."""

    spans = None  # no tracer: the door may look, and finds none

    def __getattr__(self, name):
        raise AssertionError(f"the door touched fleet.{name} for a bad request")


HIERARCHIES = tpcds_like_schema(scale=0.01).hierarchies


@pytest.fixture(scope="module")
def door():
    with FleetServer(UnreachableFleet(), hierarchies=HIERARCHIES) as server:
        yield server


def connect(server) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=2.0)


def post(body: bytes = b"", headers: str | None = None) -> bytes:
    """One raw ``POST /query``; ``headers`` defaults to the body's length."""
    if headers is None:
        headers = f"Content-Length: {len(body)}\r\n"
    return f"POST /query HTTP/1.1\r\nHost: door\r\n{headers}\r\n".encode() + body


def bad_timeout_request() -> bytes:
    """A request refused *after* its body is read."""
    return post(json.dumps({"q": QUERY, "timeout": "soon"}).encode())


def read_reply(reply) -> tuple[bytes, dict[str, str]]:
    """Read one whole reply; its status code and (lower-cased) headers."""
    status = reply.readline().split()[1]
    headers = {}
    for line in iter(reply.readline, b"\r\n"):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    reply.read(int(headers["content-length"]))
    return status, headers


@pytest.mark.parametrize(
    "headers, status",
    [
        ("", b"400"),
        ("Content-Length: -1\r\n", b"400"),
        ("Content-Length: twelve\r\n", b"400"),
        (f"Content-Length: {MAX_FRAME_BYTES + 1}\r\n", b"413"),
    ],
    ids=["missing", "negative", "non-integer", "over-frame-bound"],
)
def test_a_bad_length_is_refused_before_the_body_is_read(door, headers, status):
    # the refusal ends the connection: the unread body must not be
    # parsed as the next request
    with connect(door) as sock, sock.makefile("rb") as reply:
        sock.sendall(post(headers=headers))
        code, reply_headers = read_reply(reply)
        assert code == status
        assert reply_headers["connection"] == "close"
        assert reply.read() == b""  # EOF: the door closed the connection


@pytest.mark.parametrize("timeout", ["soon", -1, "inf", [1]])
def test_a_bad_timeout_is_refused(door, timeout):
    with connect(door) as sock, sock.makefile("rb") as reply:
        sock.sendall(post(json.dumps({"q": QUERY, "timeout": timeout}).encode()))
        assert read_reply(reply)[0] == b"400"


# -- kept connections -------------------------------------------------------


def test_a_refusal_after_the_body_keeps_the_connection(door):
    with connect(door) as sock, sock.makefile("rb") as reply:
        for _ in range(2):
            sock.sendall(bad_timeout_request())
            code, headers = read_reply(reply)
            assert code == b"400"
            assert "connection" not in headers


def test_kept_replies_do_not_wait_for_a_delayed_ack(door):
    # a body written in its own send() behind Nagle's algorithm waits
    # for the client's delayed ACK, ~40 ms a reply on Linux
    with connect(door) as sock, sock.makefile("rb") as reply:
        started = time.perf_counter()
        for _ in range(20):
            sock.sendall(bad_timeout_request())
            assert read_reply(reply)[0] == b"400"
        assert time.perf_counter() - started < 0.4


def test_no_kept_connection_outlives_close():
    threads_before = set(threading.enumerate())
    server = FleetServer(UnreachableFleet(), hierarchies=HIERARCHIES).start()
    with connect(server) as sock, sock.makefile("rb") as reply:
        sock.sendall(bad_timeout_request())
        assert read_reply(reply)[0] == b"400"
        server.close()
        try:
            sock.sendall(bad_timeout_request())
            answer = reply.read()
        except ConnectionResetError:
            answer = b""
        assert answer == b""
    # the accept loop and the connection's handler thread are both gone
    assert set(threading.enumerate()) <= threads_before


class GoneClientFleet:
    """A traced fleet whose answer is ready only once the client has gone."""

    def __init__(self):
        self.spans = SpanTracer(sample_rate=1.0, process="frontdoor")
        self.entered = threading.Event()
        self.client_gone = threading.Event()

    def submit(self, query, query_class="default", timeout=None):
        self.entered.set()
        assert self.client_gone.wait(timeout=2.0)
        return FleetAnswer(shard_id=0, accepted=True)


def test_a_client_gone_mid_flight_abandons_its_root_quietly(capsys):
    fleet = GoneClientFleet()
    with FleetServer(fleet, hierarchies=HIERARCHIES) as server:
        sock = connect(server)
        sock.sendall(post(json.dumps({"q": QUERY}).encode()))
        assert fleet.entered.wait(timeout=2.0)
        # SO_LINGER 0: close() resets the connection instead of a FIN
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        time.sleep(0.05)  # let the reset land before the reply is written
        fleet.client_gone.set()
        deadline = time.monotonic() + 2.0
        while fleet.spans.open_count() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fleet.spans.open_count() == 0
    (root,) = fleet.spans.spans()
    assert (root.name, root.status) == ("frontdoor.request", "abandoned")
    assert "Traceback" not in capsys.readouterr().err
