"""Fuzz the wire codec: a malformed query frame is a typed rejection.

``query_from_json`` checks every field of a ``query_to_json`` dict for
its JSON type before the model's own validation runs, so a mutated dict
(a field deleted, replaced by any JSON value, or a stray field added)
either decodes to a query or raises :class:`FleetError` naming the bad
field: never a bare ``TypeError`` / ``KeyError`` / ``ValueError``.
Valid dicts round-trip, through JSON text too, and the shard answers a
rejected frame with ``ok: false`` carrying the rejection's message.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError
from repro.fleet.protocol import query_from_json, query_to_json
from repro.fleet.worker import ShardSpec, _ShardServer
from repro.query.model import Condition, Query

DIMENSIONS = ("date", "store", "item")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def conditions(draw, dimension):
    resolution = draw(st.integers(0, 3))
    form = draw(st.sampled_from(["range", "text", "codes"]))
    if form == "range":
        lo = draw(st.integers(0, 20))
        return Condition(dimension, resolution, lo=lo, hi=draw(st.integers(lo + 1, 40)))
    if form == "text":
        values = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3))
        return Condition(dimension, resolution, text_values=tuple(values))
    codes = draw(st.lists(st.integers(0, 50), min_size=1, max_size=4))
    return Condition(dimension, resolution, codes=tuple(codes))


@st.composite
def queries(draw):
    dims = draw(st.lists(st.sampled_from(DIMENSIONS), unique=True, max_size=3))
    grouped = draw(st.lists(st.sampled_from(DIMENSIONS), unique=True, max_size=2))
    return Query(
        conditions=tuple(draw(conditions(d)) for d in dims),
        measures=tuple(
            draw(st.lists(st.sampled_from(["quantity", "sales_price"]), min_size=1, max_size=2))
        ),
        agg=draw(st.sampled_from(["sum", "count", "avg", "min", "max"])),
        group_by=tuple((d, draw(st.integers(0, 3))) for d in grouped),
        query_id=draw(st.integers(0, 2**40)),
    )


def slots(node):
    """Every ``(container, key)`` of a JSON tree, the root's keys included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


@st.composite
def mutated(draw):
    data = query_to_json(draw(queries()))
    places = list(slots(data))
    container, key = draw(st.sampled_from(places))
    how = draw(st.sampled_from(["delete", "replace", "add"]))
    if how == "delete":
        del container[key]
    elif how == "replace":
        container[key] = draw(json_values)
    elif isinstance(container, dict):
        container[draw(st.text(max_size=6))] = draw(json_values)
    else:
        container.append(draw(json_values))
    return data


@given(queries())
@settings(max_examples=200, deadline=None)
def test_valid_dicts_round_trip(query):
    back = query_from_json(json.loads(json.dumps(query_to_json(query))))
    assert back == query
    assert back.query_id == query.query_id


@given(mutated())
@settings(max_examples=600, deadline=None)
def test_a_mutated_dict_decodes_or_is_a_typed_rejection(data):
    try:
        query_from_json(data)
    except FleetError as exc:  # anything else fails the test
        assert "wire query" in str(exc)


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("measures"), "measures"),
        (lambda d: d.update(query_id="7"), "query_id"),
        (lambda d: d.update(agg=["sum"]), "agg"),
        (lambda d: d["conditions"][0].update(lo=1.5), "conditions[0].lo"),
        (lambda d: d["conditions"][0].update(resolution=True), "conditions[0].resolution"),
        (lambda d: d["conditions"][0].update(codes=[1, 2]), "conditions[0]"),
        (lambda d: d.update(group_by=[["date"]]), "group_by[0]"),
        (lambda d: d.update(conditions={}), "conditions"),
    ],
)
def test_the_rejection_names_the_field(mutate, field):
    data = query_to_json(
        Query(conditions=(Condition("date", 1, lo=0, hi=4),), measures=("sales_price",))
    )
    mutate(data)
    with pytest.raises(FleetError, match=rf"field {re.escape(field)}(:|$)"):
        query_from_json(data)


@pytest.fixture(scope="module")
def server():
    srv = _ShardServer(ShardSpec(shard_id=3, rows=600, cpu_threads=1, translation_workers=1))
    srv.engine.start()
    yield srv
    srv.engine.stop(finish_queued=False)


@pytest.mark.wallclock
@given(data=mutated())
@settings(max_examples=100, deadline=None)
def test_the_shard_replies_ok_false_with_the_message(server, data):
    try:
        query_from_json(data)
    except FleetError as exc:
        reply = server.handle({"kind": "query", "query": data})
        assert reply["ok"] is False
        assert reply["error"] == f"FleetError: {exc}"
