"""The front door refuses a bad ``POST /query`` with a reply, promptly.

No shard is spawned: every request here must be refused before the
handler reaches the fleet, which is a stub that fails the request if it
is touched.  Each case speaks raw HTTP over a socket it keeps open, so a
handler that reads until the client closes (``rfile.read(-1)``), reads a
huge declared body, or drops the connection without a status line fails
by the 2 s read timeout or by an empty read.
"""

import json
import socket

import pytest

from repro.fleet import FleetServer
from repro.fleet.protocol import MAX_FRAME_BYTES
from repro.relational import tpcds_like_schema

QUERY = "SELECT sum(sales_price) WHERE date.year IN [0, 2)"


class UnreachableFleet:
    """Stands in for a fleet that no refused request may reach."""

    spans = None  # no tracer: the door may look, and finds none

    def __getattr__(self, name):
        raise AssertionError(f"the door touched fleet.{name} for a bad request")


@pytest.fixture(scope="module")
def door():
    hierarchies = tpcds_like_schema(scale=0.01).hierarchies
    with FleetServer(UnreachableFleet(), hierarchies=hierarchies) as server:
        yield server


def status_line(server, headers: str, body: bytes = b"") -> bytes:
    """Send one request and read its status line, the socket still open."""
    head = f"POST /query HTTP/1.1\r\nHost: door\r\n{headers}\r\n".encode()
    with socket.create_connection((server.host, server.port), timeout=2.0) as sock:
        sock.sendall(head + body)
        with sock.makefile("rb") as reply:
            return reply.readline()


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
    assert status_line(door, headers).split()[1] == status


@pytest.mark.parametrize("timeout", ["soon", -1, "inf", [1]])
def test_a_bad_timeout_is_refused(door, timeout):
    body = json.dumps({"q": QUERY, "timeout": timeout}).encode()
    line = status_line(door, f"Content-Length: {len(body)}\r\n", body)
    assert line.split()[1] == b"400"
