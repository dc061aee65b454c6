"""Unit tests for chunked storage and chunk-offset compression."""

import numpy as np
import pytest

from benchmarks.kit.chunks import (
    ChunkedCube,
    CompressedChunk,
    DenseChunk,
    ZHAO_FILL_THRESHOLD,
)
from repro.errors import CubeError


def sparse_array(shape, density, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.random(shape)
    a[rng.random(shape) > density] = 0.0
    return a


class TestRoundTrip:
    def test_dense_array_roundtrip(self):
        a = np.arange(60, dtype=float).reshape(6, 10) + 1
        cc = ChunkedCube.from_dense(a, (4, 4))
        assert np.array_equal(cc.to_dense(), a)

    def test_sparse_array_roundtrip(self):
        a = sparse_array((33, 17), density=0.1)
        cc = ChunkedCube.from_dense(a, (8, 8))
        assert np.array_equal(cc.to_dense(), a)

    def test_3d_roundtrip(self):
        a = sparse_array((9, 7, 11), density=0.3, seed=3)
        cc = ChunkedCube.from_dense(a, (4, 4, 4))
        assert np.array_equal(cc.to_dense(), a)

    def test_all_zero(self):
        a = np.zeros((10, 10))
        cc = ChunkedCube.from_dense(a, (4, 4))
        assert cc.num_compressed == cc.num_chunks
        assert np.array_equal(cc.to_dense(), a)

    def test_chunk_larger_than_array(self):
        a = sparse_array((3, 3), density=0.5, seed=1)
        cc = ChunkedCube.from_dense(a, (10, 10))
        assert cc.num_chunks == 1
        assert np.array_equal(cc.to_dense(), a)


class TestCompressionDecision:
    def test_dense_chunks_stay_dense(self):
        a = np.ones((8, 8))
        cc = ChunkedCube.from_dense(a, (4, 4))
        assert cc.num_compressed == 0

    def test_sparse_chunks_compress(self):
        a = np.zeros((8, 8))
        a[0, 0] = 1.0  # fill ratio 1/64 < 0.4
        cc = ChunkedCube.from_dense(a, (8, 8))
        assert cc.num_compressed == 1
        assert isinstance(cc.chunk_at((0, 0)), CompressedChunk)

    def test_threshold_is_strict(self):
        # exactly at the threshold: NOT compressed (strict <)
        a = np.zeros((10,))
        a[: int(10 * ZHAO_FILL_THRESHOLD)] = 1.0
        cc = ChunkedCube.from_dense(a, (10,))
        assert cc.num_compressed == 0

    def test_custom_threshold(self):
        a = np.zeros((10,))
        a[:3] = 1.0  # 30% full
        assert ChunkedCube.from_dense(a, (10,), fill_threshold=0.2).num_compressed == 0
        assert ChunkedCube.from_dense(a, (10,), fill_threshold=0.5).num_compressed == 1

    def test_compression_saves_bytes_when_sparse(self):
        a = sparse_array((64, 64), density=0.05, seed=7)
        cc = ChunkedCube.from_dense(a, (16, 16))
        assert cc.nbytes < cc.dense_nbytes
        assert cc.compression_ratio > 1.0

    def test_invalid_threshold(self):
        with pytest.raises(CubeError):
            ChunkedCube.from_dense(np.zeros((4,)), (2,), fill_threshold=1.5)


class TestAggregation:
    def test_sum_without_decompression(self):
        a = sparse_array((20, 20), density=0.2, seed=9)
        cc = ChunkedCube.from_dense(a, (7, 7))
        assert np.isclose(cc.sum(), a.sum())

    def test_chunk_sums(self):
        a = np.arange(16, dtype=float).reshape(4, 4)
        cc = ChunkedCube.from_dense(a, (2, 2))
        assert np.isclose(cc.chunk_at((0, 0)).sum(), a[:2, :2].sum())
        assert np.isclose(cc.chunk_at((1, 1)).sum(), a[2:, 2:].sum())


class TestChunkObjects:
    def test_compressed_chunk_validation(self):
        with pytest.raises(CubeError):
            CompressedChunk(
                index=(0,),
                shape=(4,),
                offsets=np.array([0, 5]),  # out of range
                values=np.array([1.0, 2.0]),
            )

    def test_compressed_offsets_must_increase(self):
        with pytest.raises(CubeError):
            CompressedChunk(
                index=(0,),
                shape=(4,),
                offsets=np.array([2, 1]),
                values=np.array([1.0, 2.0]),
            )

    def test_fill_ratios(self):
        dense = DenseChunk(index=(0,), data=np.array([1.0, 0.0, 2.0, 0.0]))
        assert dense.fill_ratio == 0.5
        comp = CompressedChunk(
            index=(0,),
            shape=(4,),
            offsets=np.array([1]),
            values=np.array([3.0]),
        )
        assert comp.fill_ratio == 0.25

    def test_grid_shape(self):
        cc = ChunkedCube.from_dense(np.zeros((10, 7)), (4, 4))
        assert cc.grid_shape == (3, 2)
        assert cc.num_chunks == 6

    def test_missing_chunk(self):
        cc = ChunkedCube.from_dense(np.zeros((4, 4)), (4, 4))
        with pytest.raises(CubeError):
            cc.chunk_at((5, 5))

    def test_rank_mismatch(self):
        with pytest.raises(CubeError):
            ChunkedCube.from_dense(np.zeros((4, 4)), (4,))
