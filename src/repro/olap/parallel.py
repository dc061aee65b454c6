"""Multi-threaded OLAP cube aggregation — the OpenMP substitute.

The paper's first contribution is a parallel OpenMP implementation of
CPU cube processing that raised aggregation bandwidth from ~1 GB/s
(single-threaded legacy) to 15-20 GB/s on 8 cores (Figure 3).  Python
cannot host OpenMP pragmas, but the same shared-memory fork/join
structure maps onto a thread team over NumPy slices: NumPy reductions
release the GIL, so threads genuinely stream memory in parallel, which
is the only thing that matters for a bandwidth-bound kernel (Section
III-B: *"The processing of an OLAP cube is always constrained by memory
bandwidth and not by the performance of the CPU"*).

:class:`ParallelAggregator` partitions the selected sub-cube along its
first axis into per-thread blocks (OpenMP's static schedule), reduces
each block independently, and combines the partials in block order,
whichever thread reduced them, so an answer is bit-identical to
``combine(reduce_sequential(a[s]) for s in blocks)`` (the tests assert
it).  As in OpenMP, the team persists between parallel regions: one
process-wide set of daemon threads, started lazily, serves every
aggregator and the caller reduces block 0 itself (OpenMP's thread 0),
so a reduction pays a hand-off, never a thread start or join.

A hand-off is worth taking only when the block is large enough, so,
like OpenMP's ``if`` / ``num_threads`` clause, a call splits into
``min(num_threads, nbytes // MIN_BLOCK_BYTES)`` blocks and below two the
caller reduces the whole array alone with nothing posted to the team.
The floor is a constant, not a timing taken at start-up, so an answer
stays a pure function of ``(array, num_threads)``: bit-identical to the
block-order combine over the blocks this rule picks.  The floor comes
from a sweep on a 2-core guest (float64, median of 400 calls after 50
warm-ups, ``ParallelAggregator(1)`` against ``(2)``)::

    bytes           8 KB  64 KB  256 KB   1 MB   4 MB  16 MB
    caller alone     5.2    7.7    16.2   43.5    255    689  µs
    caller + team   64.1   57.0    82.5   80.2    189    525  µs

The two rows cross near 2 MB in all, so each handed-out block carries
at least 1 MiB.  The same floor tells :meth:`~repro.olap.pyramid.
CubePyramid.aggregate` when a selection is worth splitting into boxes
(:func:`streams_alone`): below one block a reduction costs its calls,
not its bytes.  *What* is reduced — the selection and the mapping of
sum / count / avg / min / max onto cube components — is
:meth:`OLAPCube.aggregate`'s, and the pyramid's for a selection it
splits into boxes; this module supplies the reducer.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import CubeError, QueryError
from repro.olap.cube import OLAPCube, reduce_sequential
from repro.olap.subcube import spec_for_query
from repro.query.model import Query
from repro.units import block_bounds

__all__ = ["ParallelAggregator", "AggregationResult", "streams_alone"]


@dataclass(frozen=True)
class AggregationResult:
    """Outcome of one parallel aggregation.

    ``bytes_streamed`` is the sub-cube payload actually reduced — the
    numerator of the Figure-3 bandwidth metric.
    """

    value: float
    bytes_streamed: int


#: the least a block handed to the team carries (the ``if`` clause)
MIN_BLOCK_BYTES = 1 << 20


def streams_alone(nbytes: int) -> bool:
    """Whether a selection of ``nbytes`` fills no team block.

    Such a reduction runs on the caller alone, and its cost is the
    calls that set it up rather than the bytes it streams, so it is
    not split further: not across the team, and not into boxes by
    :meth:`~repro.olap.pyramid.CubePyramid.aggregate`.
    """
    return nbytes < MIN_BLOCK_BYTES


#: the process-wide reduction team: it grows to the most blocks one call
#: has handed out and never shrinks.  Each handed-out block posts exactly
#: one ``(index, partial, error)`` on its caller's queue, so a caller
#: waits for its own blocks only, whoever else is reducing.
_TEAM: list[threading.Thread] = []
_TEAM_GROWS = threading.Lock()
_BLOCKS: queue.SimpleQueue = queue.SimpleQueue()


def _reduce_block(block: np.ndarray, how: str, i: int, done: queue.SimpleQueue) -> None:
    try:
        done.put((i, reduce_sequential(block, how), None))
    except Exception as exc:  # noqa: BLE001 - the caller re-raises it
        done.put((i, None, exc))


def _team_member() -> None:
    # the block dies with _reduce_block's frame, so a team thread never
    # keeps a caller's selection alive into the caller's next query
    while True:
        _reduce_block(*_BLOCKS.get())


class ParallelAggregator:
    """Thread-parallel sub-cube reduction over a dense cube.

    Parameters
    ----------
    num_threads:
        The most threads one call uses (the paper's 1/4/8 OpenMP
        threads): the caller plus at most ``num_threads - 1`` threads
        of the shared team, fewer when the selection cannot fill
        ``num_threads`` blocks of ``MIN_BLOCK_BYTES``.  1 runs the
        sequential reference path with no team involved.
    """

    def __init__(self, num_threads: int = 1):
        if num_threads < 1:
            raise CubeError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = num_threads

    # -- low-level: reduce one ndarray --------------------------------------

    def reduce_array(self, array: np.ndarray, how: str = "add") -> float:
        """Parallel reduction of an ndarray (sum / min / max).

        Splits along axis 0 into ``min(num_threads, nbytes //
        MIN_BLOCK_BYTES)`` blocks; the caller reduces block 0 while the
        team reduces the rest, and the partials are combined in block
        order on the caller thread (the OpenMP ``reduction`` clause), so
        the answer is bit-identical to combining ``reduce_sequential``
        over those blocks.  Fewer than two blocks, a 0-d array or fewer
        rows than blocks: the caller reduces the whole array alone.  An
        exception raised in any block reaches the caller unchanged.
        """
        if how not in ("add", "min", "max"):
            raise QueryError(f"unknown reduction {how!r}")
        if array.size == 0:
            if how == "add":
                return 0.0
            raise QueryError("min/max reduction of an empty selection")
        combine = {"add": sum, "min": min, "max": max}[how]
        blocks = min(self.num_threads, array.nbytes // MIN_BLOCK_BYTES)
        if blocks < 2 or array.ndim == 0 or array.shape[0] < blocks:
            return reduce_sequential(array, how)
        # static schedule: contiguous near-equal blocks along axis 0
        first, *rest = (slice(lo, hi) for lo, hi in block_bounds(array.shape[0], blocks))
        with _TEAM_GROWS:
            while len(_TEAM) < len(rest):
                _TEAM.append(threading.Thread(target=_team_member, name="olap-team", daemon=True))
                _TEAM[-1].start()
        done: queue.SimpleQueue = queue.SimpleQueue()
        for i, block in enumerate(rest):
            _BLOCKS.put((array[block], how, i, done))
        partials = [reduce_sequential(array[first], how)]
        for _, partial, error in sorted(done.get() for _ in rest):
            if error is not None:
                raise error
            partials.append(partial)
        return float(combine(partials))

    # -- sub-cube aggregation ------------------------------------------------

    def aggregate(self, cube: OLAPCube, query: Query) -> AggregationResult:
        """Answer a query from a cube with thread-parallel reduction.

        Matches :meth:`OLAPCube.aggregate` exactly — it *is* that call;
        the parallel path only changes *how* the bytes are streamed.
        """
        spec = spec_for_query(cube, query)
        return AggregationResult(
            value=cube.aggregate(spec.selectors, query.agg, self.reduce_array),
            bytes_streamed=spec.nbytes,
        )

    def __repr__(self) -> str:
        return f"ParallelAggregator(num_threads={self.num_threads})"
