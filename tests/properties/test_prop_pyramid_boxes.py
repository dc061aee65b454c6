"""Property tests for the pyramid's one CPU answer, split into boxes.

``CubePyramid.boxes`` reads a range selection's part aligned to the next
coarser materialised level there, and only the ragged border slabs at the
selected level.  Over random pyramids (uniform, non-uniform and zigzag
level sets, some with an analytic level) and random boxes (aligned,
unaligned, width 1, touching both bounds, empty interior):

- the boxes are disjoint and cover the selection, and the ``count``
  component summed over them is the single-level count exactly;
- no box at the selected level reaches into the aligned part, which the
  coarser level answers;
- ``sum`` and ``avg`` equal the single-level answer, exactly for an
  integer-valued measure and to 1e-12 relative for a float one;
- ``scanned_bytes`` is the bytes the boxes read.

The split pays only for a selection that fills a team block
(``streams_alone``), more than these small cubes hold, so the structural
properties run with that floor lifted; its own test below uses a cube
large enough to cross it.  Two mutants, one that drops a border box and
one that reads the aligned part at the selected level, must fail the
checks.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CubeError
from repro.olap import pyramid as pyramid_module
from repro.olap.cube import OLAPCube
from repro.olap.hierarchy import DimensionHierarchy
from repro.olap.pyramid import CubePyramid, PyramidLevel
from repro.olap.subcube import spec_for_query
from repro.query.model import Condition, Query

DIMS = [
    DimensionHierarchy.from_fanouts("a", ["a0", "a1", "a2"], [2, 3, 4]),
    DimensionHierarchy.from_fanouts("b", ["b0", "b1", "b2"], [3, 2, 5]),
    DimensionHierarchy.from_fanouts("c", ["c0", "c1", "c2"], [2, 4, 2]),
]
FINEST = (2, 2, 2)
#: level sets whose levels do not nest: neither of a pair is <= the other
ZIGZAG = ((2, 0, 1), (0, 2, 1), (1, 1, 2), (2, 1, 0))


@contextmanager
def no_floor():
    """Split every selection, however few bytes it holds."""
    with mock.patch.object(pyramid_module, "streams_alone", lambda nbytes: False):
        yield


def base_cube(rng, integer: bool, minmax: bool) -> OLAPCube:
    shape = tuple(d.cardinality(r) for d, r in zip(DIMS, FINEST))
    counts = rng.integers(0, 4, size=shape).astype(float)
    if integer:
        sums = rng.integers(-50, 200, size=shape).astype(float) * counts
    else:
        # positive, as a price is: no cancellation, so 1e-12 relative holds
        sums = rng.random(shape) * 10.0 ** rng.integers(-3, 6, size=shape) * counts
    components = {"sum": sums, "count": counts}
    if minmax:
        components["min"] = np.where(counts > 0, sums - 1.0, np.inf)
        components["max"] = np.where(counts > 0, sums + 1.0, -np.inf)
    return OLAPCube(DIMS, FINEST, components, measure="value")


@st.composite
def pyramids(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = base_cube(rng, integer=draw(st.booleans()), minmax=draw(st.booleans()))
    kind = draw(st.sampled_from(["uniform", "non-uniform", "zigzag"]))
    if kind == "uniform":
        uniform = draw(st.sets(st.integers(0, 1), min_size=1))
        resolutions = {(r,) * 3 for r in uniform}
    elif kind == "non-uniform":
        resolutions = set(
            draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=4))
        )
    else:
        resolutions = set(draw(st.lists(st.sampled_from(ZIGZAG), min_size=1, max_size=4)))
    resolutions.discard(FINEST)
    # at most one analytic level, and never the only coarser one
    analytic = (
        draw(st.sets(st.sampled_from(sorted(resolutions)), max_size=1))
        if len(resolutions) > 1
        else set()
    )
    levels = [PyramidLevel(FINEST, base.cell_nbytes, base)]
    for res in sorted(resolutions):
        cube = None if res in analytic else base.rollup(res)
        levels.append(PyramidLevel(res, base.cell_nbytes, cube))
    return CubePyramid(DIMS, levels, measure="value")


@st.composite
def boxes(draw, pyramid):
    """One range condition or none per dimension, at the resolutions of
    one of ``pyramid``'s levels (the finest half the time), so that level
    or a smaller one answers."""
    finest = pyramid.levels[-1]
    target = draw(st.sampled_from([finest] * len(pyramid.levels) + list(pyramid.levels)))
    conditions = []
    for d, r in zip(DIMS, target.resolutions):
        if draw(st.integers(0, 3)) == 0:
            continue
        card = d.cardinality(r)
        if draw(st.booleans()):  # wide: likely to hold whole blocks
            lo = draw(st.integers(0, card // 3))
            hi = draw(st.integers(max(lo + 1, card - card // 3), card))
        else:
            lo = draw(st.integers(0, card - 1))
            hi = draw(st.integers(lo + 1, card))
        conditions.append(Condition(d.name, r, lo=lo, hi=hi))
    agg = draw(st.sampled_from(["sum", "count", "avg"] * 3 + ["min", "max"]))
    return Query(conditions=tuple(conditions), measures=("value",), agg=agg)


def coarser_level(pyramid, level):
    """The finest other materialised level at a resolution <= on every axis."""
    below = [
        other
        for other in pyramid.levels
        if other.cube is not None
        and other.resolutions != level.resolutions
        and all(c <= r for c, r in zip(other.resolutions, level.resolutions))
    ]
    return max(below, key=lambda other: other.cube.num_cells, default=None)


def fine_ranges(selectors, resolutions, level):
    """A box's per-axis ranges in the selected level's coordinates."""
    ranges = []
    for d, sel, r, fine in zip(DIMS, selectors, resolutions, level.resolutions):
        lo, hi, _ = sel.indices(d.cardinality(r))
        block = d.cardinality(fine) // d.cardinality(r)
        ranges.append((lo * block, hi * block))
    return ranges


def check_boxes(pyramid, query, split):
    """Every structural property of ``split``, the boxes one answer reads."""
    level = pyramid.select_level(query)
    cube = level.cube
    spec = spec_for_query(cube, query)
    assert 1 <= len(split) <= 2 * len(DIMS) + 1
    if split[0][0] is cube:  # not split: the selection at the selected level
        assert len(split) == 1
        return
    coarse = coarser_level(pyramid, level)
    assert coarse is not None and split[0][0] is coarse.cube
    assert all(c is cube for c, _ in split[1:])
    # the aligned part, from the selection and the coarser level's blocks
    aligned = []
    for d, sel, fine, c in zip(DIMS, spec.selectors, level.resolutions, coarse.resolutions):
        lo, hi, _ = sel.indices(d.cardinality(fine))
        block = d.cardinality(fine) // d.cardinality(c)
        aligned.append(slice(-(-lo // block) * block, hi // block * block))
    cover = np.zeros(cube.shape, dtype=np.int64)
    for c, selectors in split:
        resolutions = coarse.resolutions if c is coarse.cube else level.resolutions
        box = tuple(slice(lo, hi) for lo, hi in fine_ranges(selectors, resolutions, level))
        cover[box] += 1
        if c is cube:  # a border slab never reads the aligned part
            inside = np.zeros(cube.shape, dtype=bool)
            inside[tuple(aligned)] = True
            assert not inside[box].any()
    selected = np.zeros(cube.shape, dtype=bool)
    selected[tuple(spec.selectors)] = True
    assert (cover[selected] == 1).all() and (cover[~selected] == 0).all()
    count = sum(c.component("count")[box].sum() for c, box in split)
    assert count == cube.component("count")[tuple(spec.selectors)].sum()


def check_answer(pyramid, query):
    level = pyramid.select_level(query)
    single = level.cube.aggregate(spec_for_query(level.cube, query).selectors, query.agg)
    got = pyramid.aggregate(query)
    integer = bool(np.all(np.mod(level.cube.component("sum"), 1.0) == 0.0))
    if np.isnan(single):
        assert np.isnan(got)
    elif query.agg == "count" or integer:
        assert got == single
    else:
        assert got == pytest.approx(single, rel=1e-12, abs=1e-300)
    assert pyramid.scanned_bytes(query) == sum(
        c.cell_nbytes * int(np.prod(c.component("count")[box].shape))
        for c, box in pyramid.boxes(query)
    )


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_the_boxes_answer_what_the_selected_level_does(data):
    pyramid = data.draw(pyramids())
    query = data.draw(boxes(pyramid))
    level = pyramid.select_level(query)
    with no_floor():
        if level.cube is None:
            with pytest.raises(CubeError, match="analytic"):
                pyramid.boxes(query)
            return
        if query.agg in ("min", "max") and "min" not in level.cube.components:
            with pytest.raises(CubeError, match="min"):
                pyramid.aggregate(query)
            return
        split = pyramid.boxes(query)
        check_boxes(pyramid, query, split)
        check_answer(pyramid, query)
    if query.agg in ("min", "max"):
        assert len(split) == 1


def uniform_pyramid(with_minmax=False):
    base = base_cube(np.random.default_rng(7), integer=True, minmax=with_minmax)
    levels = [PyramidLevel(FINEST, base.cell_nbytes, base)] + [
        PyramidLevel((r,) * 3, base.cell_nbytes, base.rollup((r,) * 3)) for r in (0, 1)
    ]
    return CubePyramid(DIMS, levels, measure="value")


def at_finest(*ranges, agg="sum"):
    return Query(
        conditions=tuple(
            Condition(d.name, 2, lo=lo, hi=hi) for d, (lo, hi) in zip(DIMS, ranges)
        ),
        measures=("value",),
        agg=agg,
    )


# level-1 blocks at level 2 are 4 x 5 x 2 cells; level 2 is 24 x 30 x 16
NAMED = {
    "aligned": (at_finest((4, 20), (5, 25), (2, 14)), 1),
    "unaligned": (at_finest((3, 21), (1, 29), (1, 15)), 7),
    "width 1": (at_finest((9, 10), (0, 30), (0, 16)), 1),
    "touching both bounds": (at_finest((0, 24), (0, 30), (0, 16)), 1),
    "both bounds, ragged inside": (at_finest((0, 23), (2, 30), (0, 16)), 3),
    "empty interior": (at_finest((5, 7), (0, 30), (0, 16)), 1),
}


@pytest.mark.parametrize("name", sorted(NAMED))
@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_named_boxes(name, agg):
    pyramid = uniform_pyramid()
    query, expected = NAMED[name]
    query = Query(conditions=query.conditions, measures=("value",), agg=agg)
    with no_floor():
        split = pyramid.boxes(query)
        assert len(split) == expected
        check_boxes(pyramid, query, split)
        check_answer(pyramid, query)
    if name == "aligned":
        # the whole selection comes from level 1: 4 x 4 x 6 of its cells
        ((cube, box),) = split
        assert cube.resolutions == (1, 1, 1)
        assert box == (slice(1, 5), slice(1, 5), slice(1, 7))
    if name in ("width 1", "empty interior"):
        assert split[0][0].resolutions == FINEST


def test_a_code_set_and_min_max_keep_one_box():
    pyramid = uniform_pyramid(with_minmax=True)
    query, _ = NAMED["unaligned"]
    coded = Query(
        conditions=(Condition("a", 2, codes=(3, 4, 5, 6, 7, 8)), *query.conditions[1:]),
        measures=("value",),
    )
    with no_floor():
        assert len(pyramid.boxes(coded)) == 1
        for agg in ("min", "max"):
            bounded = Query(conditions=query.conditions, measures=("value",), agg=agg)
            assert len(pyramid.boxes(bounded)) == 1
            check_answer(pyramid, bounded)


class TestMutants:
    """The checks above fail on an answer that drops a border slab or
    reads the aligned part at the selected level."""

    QUERY = NAMED["unaligned"][0]

    def split(self):
        pyramid = uniform_pyramid()
        with no_floor():
            return pyramid, pyramid.boxes(self.QUERY)

    def test_dropping_a_border_box_fails(self):
        pyramid, split = self.split()
        for dropped in range(1, len(split)):
            mutant = split[:dropped] + split[dropped + 1:]
            with pytest.raises(AssertionError):
                check_boxes(pyramid, self.QUERY, mutant)

    def test_reading_the_interior_at_the_fine_level_fails(self):
        pyramid, split = self.split()
        level = pyramid.select_level(self.QUERY)
        (coarse, interior), *borders = split
        fine = tuple(
            slice(s.start * b, s.stop * b)
            for s, b in zip(interior, (4, 5, 2))
        )
        mutant = [(level.cube, fine), *borders]
        with pytest.raises(AssertionError):
            check_boxes(pyramid, self.QUERY, mutant)


def test_the_floor_keeps_a_small_selection_whole_and_splits_a_large_one():
    """Below one team block the split is not taken; a cube whose
    selection crosses it is split and answers the same."""
    dims = [
        DimensionHierarchy.from_fanouts("a", ["a0", "a1"], [8, 8]),
        DimensionHierarchy.from_fanouts("b", ["b0", "b1"], [8, 8]),
        DimensionHierarchy.from_fanouts("c", ["c0", "c1"], [4, 8]),
    ]
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 3, size=(64, 64, 32)).astype(float)
    base = OLAPCube(dims, (1, 1, 1), {"sum": counts * 5.0, "count": counts}, measure="value")
    pyramid = CubePyramid(
        dims,
        [
            PyramidLevel((1, 1, 1), base.cell_nbytes, base),
            PyramidLevel((0, 0, 0), base.cell_nbytes, base.rollup((0, 0, 0))),
        ],
        measure="value",
    )

    def box(*ranges):
        return Query(
            conditions=tuple(
                Condition(d.name, 1, lo=lo, hi=hi) for d, (lo, hi) in zip(dims, ranges)
            ),
            measures=("value",),
        )

    small = box((3, 20), (3, 20), (3, 20))
    large = box((3, 61), (3, 61), (1, 31))
    assert spec_for_query(base, small).nbytes < 1 << 20 <= spec_for_query(base, large).nbytes
    assert len(pyramid.boxes(small)) == 1
    assert len(pyramid.boxes(large)) == 7
    assert pyramid.aggregate(large) == base.aggregate(spec_for_query(base, large).selectors)
    # 58 x 58 x 30 cells stream as 6 x 6 x 2 coarse cells and 64 056 fine ones
    assert pyramid.scanned_bytes(large) == (6 * 6 * 2 + 64_056) * base.cell_nbytes
