"""The fleet wire protocol: length-prefixed JSON frames over sockets.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  Length-prefixing (rather than newline delimiting)
keeps the framing independent of payload content and lets the receiver
pre-validate the size before allocating — a frame claiming more than
:data:`MAX_FRAME_BYTES` is a protocol violation, not an allocation.

Requests are JSON objects with a ``"kind"`` discriminator (``ping``,
``query``, ``report``, ``metrics``, ``maintain``, ``shutdown``);
responses carry ``"ok": true`` plus kind-specific fields, or
``"ok": false`` with an ``"error"`` string.  Queries and records cross
the wire through :func:`query_to_json` / :func:`record_to_json`, which
round-trip every field — including ``query_id``, so the front door's
ids stay globally unique and per-shard books reconcile fleet-wide.  A
query frame whose fields do not type-check is refused with a
:class:`~repro.errors.FleetError` naming the field, which the shard
returns as its ``"error"``.

**Span context propagation.**  A ``query`` frame may carry an optional
``"traceparent"`` field in the W3C style (``00-<trace_id>-<span_id>-01``
— see :func:`repro.obs.span.format_traceparent`): the front door stamps
it on every frame of a head-sampled query, and its *presence* is the
shard-side sampling signal — the shard's tracer adopts the context and
parents its ``serve.query`` subtree under the front door's span, so the
stitched fleet view shows one causally-linked tree per sampled query.
Frames without the field trace nothing on the shard.  The ``shutdown``
response's ``"spans"`` field drains a shard's span buffer back to the
parent as :meth:`repro.obs.span.Span.to_dict` objects.
"""

from __future__ import annotations

import json
import socket
import struct
from collections.abc import Mapping
from typing import Any

from repro.errors import FleetError, QueryError
from repro.query.model import Condition, Query
from repro.sim.metrics import QueryRecord

__all__ = [
    "MAX_FRAME_BYTES",
    "send_frame",
    "recv_frame",
    "query_to_json",
    "query_from_json",
    "record_to_json",
    "record_from_json",
]

#: Upper bound on one frame's payload.  Reports carry every query record
#: of a run, so the bound is generous; anything larger is a corrupt or
#: hostile length prefix.
MAX_FRAME_BYTES = 64 * 2**20

_LEN = struct.Struct(">I")


def send_frame(sock: socket.socket, message: Mapping[str, Any]) -> None:
    """Serialise one message and write it as a single frame."""
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FleetError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol bound"
        )
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exactly(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on a clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise FleetError(
                f"connection closed mid-frame ({got} of {n} bytes read)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; None when the peer closed between frames."""
    header = _recv_exactly(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FleetError(
            f"peer announced a {length}-byte frame, over the "
            f"{MAX_FRAME_BYTES}-byte protocol bound"
        )
    payload = _recv_exactly(sock, length)
    if payload is None:
        raise FleetError("connection closed after frame header")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FleetError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise FleetError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


# -- query / record serialisation -------------------------------------------


def query_to_json(query: Query) -> dict[str, Any]:
    """A query as plain JSON, preserving ``query_id`` and all fields."""
    return {
        "query_id": query.query_id,
        "agg": query.agg,
        "measures": list(query.measures),
        "group_by": [[dim, res] for dim, res in query.group_by],
        "conditions": [
            {
                "dimension": cond.dimension,
                "resolution": cond.resolution,
                "lo": cond.lo,
                "hi": cond.hi,
                "text_values": list(cond.text_values),
                "codes": list(cond.codes),
            }
            for cond in query.conditions
        ],
    }


#: what each JSON kind a wire query uses is called in a rejection
_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _wire(value: Any, kind: type, field: str) -> Any:
    """``value`` when it is a JSON ``kind``; a :class:`FleetError` naming
    ``field`` otherwise (a JSON ``true`` is no integer)."""
    if type(value) is kind or (kind is not int and isinstance(value, kind)):
        return value
    raise FleetError(
        f"wire query field {field}: expected {_KINDS[kind]}, got {type(value).__name__}"
    )


def _member(data: dict, key: str, kind: type, where: str = "", default: Any = None) -> Any:
    """``data[key]`` of ``kind``; ``default`` when absent, if there is one."""
    if key in data:
        value = data[key]
        return value if type(value) is kind else _wire(value, kind, where + key)
    if default is None:
        raise FleetError(f"wire query lacks field {where}{key}")
    return default


def _items(data: dict, key: str, kind: type, where: str = "", default: Any = None) -> list:
    """``data[key]``, a list whose every item is of ``kind``."""
    items = _member(data, key, list, where, default)
    if not all(type(item) is kind for item in items):
        for i, item in enumerate(items):
            _wire(item, kind, f"{where}{key}[{i}]")
    return items


def _condition_from_json(data: Any, where: str) -> Condition:
    data = _wire(data, dict, where)
    lo, hi = (
        None if data.get(key) is None else _member(data, key, int, f"{where}.")
        for key in ("lo", "hi")
    )
    try:
        return Condition(
            dimension=_member(data, "dimension", str, f"{where}."),
            resolution=_member(data, "resolution", int, f"{where}."),
            lo=lo,
            hi=hi,
            text_values=tuple(_items(data, "text_values", str, f"{where}.", [])),
            codes=tuple(_items(data, "codes", int, f"{where}.", [])),
        )
    except QueryError as exc:
        raise FleetError(f"wire query field {where}: {exc}") from exc


def query_from_json(data: Mapping[str, Any]) -> Query:
    """Rebuild a query from :func:`query_to_json` output.

    Every field is checked for its JSON type and construction re-runs
    the model's own validation (exactly one condition form, known
    aggregate, no duplicate group-by dimensions), so a malformed wire
    query fails at the boundary with a :class:`FleetError` that names
    the bad field, e.g. ``conditions[0].lo``.
    """
    data = _wire(data, dict, "query")
    conditions = tuple(
        _condition_from_json(c, f"conditions[{i}]")
        for i, c in enumerate(_member(data, "conditions", list))
    )
    group_by = []
    for i, pair in enumerate(_items(data, "group_by", list)):
        if len(pair) != 2:
            raise FleetError(f"wire query field group_by[{i}]: expected [dimension, resolution]")
        group_by.append(
            (_wire(pair[0], str, f"group_by[{i}][0]"), _wire(pair[1], int, f"group_by[{i}][1]"))
        )
    try:
        return Query(
            conditions=conditions,
            measures=tuple(_items(data, "measures", str)),
            agg=_member(data, "agg", str),
            group_by=tuple(group_by),
            query_id=_member(data, "query_id", int),
        )
    except QueryError as exc:
        raise FleetError(f"wire query rejected: {exc}") from exc


def record_to_json(record: QueryRecord) -> dict[str, Any]:
    return {
        "query_id": record.query_id,
        "query_class": record.query_class,
        "target": record.target,
        "submit_time": record.submit_time,
        "finish_time": record.finish_time,
        "deadline": record.deadline,
        "estimated_time": record.estimated_time,
        "measured_time": record.measured_time,
        "translated": record.translated,
        "answer": record.answer,
    }


def record_from_json(data: Mapping[str, Any]) -> QueryRecord:
    return QueryRecord(
        query_id=int(data["query_id"]),
        query_class=str(data["query_class"]),
        target=str(data["target"]),
        submit_time=float(data["submit_time"]),
        finish_time=float(data["finish_time"]),
        deadline=float(data["deadline"]),
        estimated_time=float(data["estimated_time"]),
        measured_time=float(data["measured_time"]),
        translated=bool(data["translated"]),
        answer=None if data.get("answer") is None else float(data["answer"]),
    )
