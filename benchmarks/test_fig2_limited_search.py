"""FIG2 — Figure 2: the "area of limited search".

The figure illustrates why sub-cube size (eq. 3) is the CPU cost
driver: a query's per-dimension ranges bound a hyper-rectangle, and
only that region of the cube is streamed.  Reproduction: measure the
*bytes actually touched* while answering queries of growing coverage,
on both the dense representation (via the sub-cube spec) and the
chunked/compressed representation (only overlapping chunks are read),
and verify proportionality with eq. 3.
"""

import numpy as np
import pytest

from benchmarks.kit.chunks import ChunkedCube
from repro.olap.cube import OLAPCube
from repro.olap.subcube import spec_for_query, subcube_size_bytes
from repro.query.model import Condition, Query
from repro.relational import generate_dataset, tpcds_like_schema


@pytest.fixture(scope="module")
def world():
    schema = tpcds_like_schema(scale=0.5)
    dataset = generate_dataset(schema, num_rows=50_000, seed=2)
    cube = OLAPCube.from_fact_table(dataset.table, "quantity", resolutions=[2, 2, 2])
    chunked = ChunkedCube.from_dense(cube.component("sum"), (12, 20, 10))
    return schema, dataset.table, cube, chunked


@pytest.mark.experiment("FIG2", "bytes scanned ~ sub-cube volume (eq. 3)")
def test_fig2_scanned_bytes_proportional(benchmark, report, world):
    schema, table, cube, chunked = world
    d0 = schema.dimensions[0]
    card = d0.cardinality(2)

    def sweep():
        rows = []
        for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
            width = max(1, round(frac * card))
            q = Query(
                conditions=(Condition(d0.name, 2, lo=0, hi=width),),
                measures=("quantity",),
            )
            spec = spec_for_query(cube, q)
            expected = subcube_size_bytes(spec.widths, cube.cell_nbytes)
            rows.append((frac, spec.nbytes, expected))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report.line("coverage -> bytes streamed (dense cube):")
    for frac, measured, expected in rows:
        report.line(f"  {frac:4.0%}: {measured:>12,d} B (eq. 3: {expected:,d} B)")
        assert measured == expected
    # proportionality: 100% coverage streams ~10x the 10% coverage
    assert rows[-1][1] / rows[0][1] == pytest.approx(10.0, rel=0.15)


@pytest.mark.experiment("FIG2-chunks", "chunked storage only touches overlapping chunks")
def test_fig2_chunked_limited_search(benchmark, report, world):
    schema, table, cube, chunked = world
    shape = cube.shape

    def touched_chunks(ranges):
        count = 0
        for index, chunk in chunked._chunks.items():
            starts = tuple(i * c for i, c in zip(index, chunked.chunk_shape))
            extents = (
                chunk.data.shape if hasattr(chunk, "data") else chunk.shape
            )
            overlap = all(
                max(lo - s, 0) < min(hi - s, e)
                for (lo, hi), s, e in zip(ranges, starts, extents)
            )
            count += overlap
        return count

    def sweep():
        out = []
        for frac in (0.1, 0.5, 1.0):
            ranges = [(0, max(1, round(frac * s))) for s in shape]
            value = chunked.sum_range(ranges)
            dense = float(
                cube.component("sum")[tuple(slice(lo, hi) for lo, hi in ranges)].sum()
            )
            out.append((frac, touched_chunks(ranges), value, dense))
        return out

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report.line(f"chunk grid {chunked.grid_shape}, {chunked.num_chunks} chunks "
                f"({chunked.num_compressed} compressed):")
    for frac, touched, value, dense in rows:
        report.line(f"  {frac:4.0%} coverage: {touched:>4d} chunks touched")
        assert np.isclose(value, dense)
    # the limited search touches strictly fewer chunks at low coverage
    assert rows[0][1] < rows[-1][1]
    assert rows[-1][1] == chunked.num_chunks
