"""Property-based tests for chunked storage."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from benchmarks.kit.chunks import ChunkedCube


@st.composite
def arrays_and_chunks(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 12)) for _ in range(ndim))
    density = draw(st.floats(0.0, 1.0))
    values = draw(
        hnp.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    mask = draw(
        hnp.arrays(dtype=np.bool_, shape=shape, elements=st.booleans())
    )
    array = np.where(mask & (np.abs(values) > (1 - density) * 1e6), values, 0.0)
    chunk_shape = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    threshold = draw(st.floats(0.0, 1.0))
    return array, chunk_shape, threshold


class TestChunkProperties:
    @given(arrays_and_chunks())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_exact(self, case):
        array, chunk_shape, threshold = case
        cc = ChunkedCube.from_dense(array, chunk_shape, fill_threshold=threshold)
        assert np.array_equal(cc.to_dense(), array)

    @given(arrays_and_chunks())
    @settings(max_examples=100, deadline=None)
    def test_sum_preserved(self, case):
        array, chunk_shape, threshold = case
        cc = ChunkedCube.from_dense(array, chunk_shape, fill_threshold=threshold)
        assert np.isclose(cc.sum(), array.sum(), atol=1e-6)

    @given(arrays_and_chunks())
    @settings(max_examples=100, deadline=None)
    def test_chunk_grid_covers_shape(self, case):
        array, chunk_shape, threshold = case
        cc = ChunkedCube.from_dense(array, chunk_shape, fill_threshold=threshold)
        expected = 1
        for s, c in zip(array.shape, chunk_shape):
            expected *= -(-s // c)
        assert cc.num_chunks == expected

    @given(arrays_and_chunks())
    @settings(max_examples=60, deadline=None)
    def test_compressed_chunks_below_threshold(self, case):
        array, chunk_shape, threshold = case
        cc = ChunkedCube.from_dense(array, chunk_shape, fill_threshold=threshold)
        from benchmarks.kit.chunks import CompressedChunk, DenseChunk

        for chunk in cc.iter_chunks():
            if isinstance(chunk, CompressedChunk):
                assert chunk.fill_ratio < threshold
            else:
                assert isinstance(chunk, DenseChunk)
                assert chunk.fill_ratio >= threshold


class TestRangeSumProperty:
    @given(arrays_and_chunks(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_sum_range_matches_dense_slice(self, case, data):
        array, chunk_shape, threshold = case
        cc = ChunkedCube.from_dense(array, chunk_shape, fill_threshold=threshold)
        ranges = []
        for extent in array.shape:
            lo = data.draw(st.integers(0, extent), label="lo")
            hi = data.draw(st.integers(lo, extent), label="hi")
            ranges.append((lo, hi))
        expected = array[tuple(slice(lo, hi) for lo, hi in ranges)].sum()
        assert np.isclose(cc.sum_range(ranges), expected, atol=1e-6)
