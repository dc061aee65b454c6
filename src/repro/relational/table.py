"""Columnar fact table with the paper's 1-D packed memory layout.

Section III-E: *"a 1D array memory structure is employed as this data
structure provides maximum performance by placing all columns of the
table one after another"*.  :class:`FactTable` stores each column as a
contiguous NumPy array and can expose the whole table as a single packed
1-D buffer (:meth:`packed`) exactly as the GPU resident copy would be.

The table also implements the *reference scan engine*: vectorised
filter-and-aggregate over the decomposed query (eq. 11).  The simulated
GPU kernels (:mod:`repro.gpu.kernels`) run this same algorithm
partitioned across simulated streaming multiprocessors, so CPU and GPU
answers are bit-identical — which the integration tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import QueryError, SchemaError, TranslationError
from repro.query.model import Query, QueryDecomposition
from repro.query.model import decompose as decompose_query
from repro.relational.schema import TableSchema

__all__ = ["FactTable", "ScanResult"]


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one filter-and-aggregate scan.

    Attributes
    ----------
    values:
        Aggregated value per measure column (``{"revenue": 1234.5}``).
        For ``count`` queries the single key is ``"count"``.
    rows_matched:
        Number of rows passing all filtration conditions.
    columns_read:
        Columns touched by the scan — the realised :math:`C_{Q_D}`
        (eq. 12).
    bytes_read:
        Bytes fetched from (simulated) memory: full columns are always
        read (*"if the query reads a column it always reads the entire
        column and not just part of it"*, Section III-E).
    """

    values: Mapping[str, float]
    rows_matched: int
    columns_read: int
    bytes_read: int

    def value(self, measure: str | None = None) -> float:
        """Single aggregated value; ``measure`` may be omitted if unique."""
        if measure is None:
            if len(self.values) != 1:
                raise QueryError(
                    f"scan produced {len(self.values)} values; name the measure"
                )
            return next(iter(self.values.values()))
        return self.values[measure]


class FactTable:
    """An in-memory columnar fact table.

    Parameters
    ----------
    schema:
        The :class:`TableSchema` describing the columns.
    columns:
        Mapping from column name to a 1-D array.  All columns must have
        equal length; dtypes are cast to the schema's dtypes.
    """

    def __init__(self, schema: TableSchema, columns: Mapping[str, np.ndarray]):
        missing = [c.name for c in schema.columns if c.name not in columns]
        if missing:
            raise SchemaError(f"missing columns: {missing}")
        extra = [name for name in columns if name not in schema]
        if extra:
            raise SchemaError(f"columns not in schema: {extra}")

        lengths = {name: len(arr) for name, arr in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged columns: {lengths}")

        self.schema = schema
        self._columns: dict[str, np.ndarray] = {}
        for spec in schema.columns:
            arr = np.ascontiguousarray(columns[spec.name], dtype=spec.dtype)
            if arr.ndim != 1:
                raise SchemaError(f"column {spec.name!r} must be 1-D, got shape {arr.shape}")
            self._columns[spec.name] = arr
        self.num_rows = int(next(iter(lengths.values()))) if lengths else 0

        # Validate dimension-column ranges: coordinates must lie within
        # the level cardinality (out-of-range coordinates would silently
        # produce wrong aggregates and break cube construction).
        for spec in schema.dimension_columns:
            card = schema.dimension(spec.dimension).cardinality(spec.resolution)
            col = self._columns[spec.name]
            if col.size and (col.min() < 0 or col.max() >= card):
                raise SchemaError(
                    f"column {spec.name!r} has coordinates outside [0, {card})"
                )

    # -- access ------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The stored array for ``name`` (a view, not a copy)."""
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    @property
    def nbytes(self) -> int:
        """Total payload bytes across all columns."""
        return int(sum(arr.nbytes for arr in self._columns.values()))

    def column_nbytes(self, name: str) -> int:
        return int(self.column(name).nbytes)

    def packed(self) -> np.ndarray:
        """The paper's 1-D layout: all columns concatenated as raw bytes.

        Returned as a uint8 buffer; :meth:`column_offsets` gives the byte
        offset of each column inside it.  This is the shape of the table
        as resident in simulated GPU global memory.
        """
        parts = [self._columns[c.name].view(np.uint8) for c in self.schema.columns]
        if not parts:
            return np.empty(0, dtype=np.uint8)
        return np.concatenate(parts)

    def column_offsets(self) -> dict[str, int]:
        """Byte offset of every column inside :meth:`packed`."""
        offsets: dict[str, int] = {}
        off = 0
        for spec in self.schema.columns:
            offsets[spec.name] = off
            off += self._columns[spec.name].nbytes
        return offsets

    def head(self, n: int = 5) -> dict[str, np.ndarray]:
        """First ``n`` rows of every column (for debugging/examples)."""
        return {name: arr[:n].copy() for name, arr in self._columns.items()}

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return (
            f"FactTable({self.num_rows} rows x {self.schema.total_columns} cols, "
            f"{self.nbytes / 2**20:.2f} MB)"
        )

    # -- scanning ------------------------------------------------------------

    def filter_mask(self, decomposition: QueryDecomposition) -> np.ndarray:
        """Boolean row mask for all filtration conditions of ``Q_D``.

        Untranslated text predicates are a hard error: the table stores
        dictionary codes, so string literals cannot be compared directly
        (this is exactly why the translation partition exists).
        """
        mask = np.ones(self.num_rows, dtype=bool)
        for pred in decomposition.predicates:
            cond = pred.condition
            if cond.is_text:
                raise TranslationError(
                    f"predicate on column {pred.column!r} still carries text "
                    f"literals {cond.text_values}; translate the query first"
                )
            col = self.column(pred.column)
            if cond.is_range:
                assert cond.lo is not None and cond.hi is not None
                mask &= (col >= cond.lo) & (col < cond.hi)
            else:
                mask &= np.isin(col, np.asarray(cond.codes, dtype=col.dtype))
        return mask

    def scan(self, decomposition: QueryDecomposition) -> ScanResult:
        """Vectorised filter-and-aggregate of a decomposed query.

        Follows the four-step structure of Lauer et al. [9] that the
        paper's GPU path implements: predicate evaluation per column,
        conjunction, then reduction over the data columns.
        """
        mask = self.filter_mask(decomposition)
        rows = int(np.count_nonzero(mask))
        agg = decomposition.query.agg

        values: dict[str, float] = {}
        if agg == "count":
            values["count"] = float(rows)
        else:
            for measure in decomposition.data_columns:
                col = self.column(measure)
                selected = col[mask]
                if agg == "sum":
                    values[measure] = float(selected.sum()) if rows else 0.0
                elif agg == "avg":
                    values[measure] = float(selected.mean()) if rows else float("nan")
                elif agg == "min":
                    values[measure] = float(selected.min()) if rows else float("nan")
                elif agg == "max":
                    values[measure] = float(selected.max()) if rows else float("nan")
                else:  # pragma: no cover - Query validates agg names
                    raise QueryError(f"unknown aggregate {agg!r}")

        cols_read = decomposition.columns_accessed
        bytes_read = sum(
            self.column_nbytes(p.column) for p in decomposition.predicates
        ) + sum(self.column_nbytes(m) for m in decomposition.data_columns)
        return ScanResult(
            values=values,
            rows_matched=rows,
            columns_read=cols_read,
            bytes_read=int(bytes_read),
        )

    def execute(self, query: Query) -> ScanResult:
        """Decompose and scan a query in one step (reference answer path)."""
        decomposition = decompose_query(query, self.schema.hierarchies)
        return self.scan(decomposition)
