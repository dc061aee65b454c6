"""Property test: ``OLAPCube.slice_component`` selects what ``np.take`` did.

The gather indexes the strided view directly instead of letting
``np.take`` copy the whole view first.  Over random mixed slice and
code-set selectors — empty code sets, repeated codes and length-1 axes
included — the selection must hold the same values as the ``np.take``
reference, and ``sum`` / ``min`` / ``max`` of it must agree bit for bit:
the float sum depends on the memory layout, so this pins the layout too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.olap.cube import OLAPCube
from repro.olap.hierarchy import DimensionHierarchy


def take_reference(arr, selectors):
    """The gather as it was: slices are views, code sets ``np.take``."""
    for axis, sel in enumerate(selectors):
        if isinstance(sel, slice):
            arr = arr[(slice(None),) * axis + (sel,)]
        else:
            arr = np.take(arr, sel, axis=axis)
    return arr


@st.composite
def cubes_and_selectors(draw):
    shape = tuple(
        draw(st.one_of(st.integers(1, 6), st.sampled_from([1, 17, 40])))
        for _ in range(draw(st.integers(1, 4)))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # magnitudes spread over ten decades, so the order of a float sum shows
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 8, size=shape)
    dims = [
        DimensionHierarchy.from_fanouts(f"d{i}", ["L0"], [extent])
        for i, extent in enumerate(shape)
    ]
    cube = OLAPCube(
        dims,
        [0] * len(dims),
        {"sum": values, "count": np.ones(shape), "min": values, "max": values},
    )
    selectors = []
    for extent in shape:
        kind = draw(st.sampled_from(["all", "slice", "codes"]))
        if kind == "all":
            selectors.append(slice(None))
        elif kind == "slice":
            lo = draw(st.integers(0, extent))
            selectors.append(slice(lo, draw(st.integers(lo, extent))))
        else:
            codes = draw(st.lists(st.integers(0, extent - 1), max_size=min(extent + 2, 12)))
            if draw(st.booleans()):
                codes = sorted(set(codes))
            selectors.append(np.asarray(codes, dtype=np.intp))
    return cube, selectors


def bits(x):
    return np.float64(x).tobytes()


@given(case=cubes_and_selectors())
@settings(max_examples=300, deadline=None)
def test_the_gather_selects_what_take_did(case):
    cube, selectors = case
    for name in ("sum", "min"):
        got = cube.slice_component(name, selectors)
        ref = take_reference(cube.component(name), selectors)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)
        assert bits(got.sum()) == bits(ref.sum())
        if ref.size:
            assert bits(got.min()) == bits(ref.min())
            assert bits(got.max()) == bits(ref.max())
