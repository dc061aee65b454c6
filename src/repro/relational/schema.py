"""Fact-table schemas.

A fact table (Figure 6) has two kinds of columns:

* **dimension columns** — one per (dimension, level) pair, holding the
  integer coordinate of the row at that resolution.  Some levels are
  *text levels*: their raw values are strings (street names, city names,
  person names...) that are dictionary-encoded to integers at database
  build time (Section III-F), so the stored column is still integral.
* **data columns** — the measures that queries aggregate.

The schema also fixes :math:`C_{TOTAL}`, the total column count that
normalises the GPU performance model's abscissa :math:`C/C_{TOTAL}`
(eq. 13-14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import DimensionError, SchemaError
from repro.olap.hierarchy import DimensionHierarchy
from repro.query.model import dimension_column

__all__ = ["ColumnSpec", "TableSchema"]


@dataclass(frozen=True)
class ColumnSpec:
    """Static description of one fact-table column.

    Attributes
    ----------
    name:
        Column name (``"time__month"`` for dimension columns, plain
        measure name for data columns).
    kind:
        ``"dimension"`` or ``"measure"``.
    dtype:
        NumPy dtype of the stored values.  Dimension columns are integer
        (possibly dictionary codes); measures default to float64.
    dimension, level_name, resolution:
        For dimension columns, the hierarchy coordinates; ``None``/-1 for
        measures.
    is_text:
        True when the raw values of this column are strings and the
        stored integers are dictionary codes.
    """

    name: str
    kind: str
    dtype: np.dtype
    dimension: str | None = None
    level_name: str | None = None
    resolution: int = -1
    is_text: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("dimension", "measure"):
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "dimension" and (self.dimension is None or self.level_name is None):
            raise SchemaError(f"dimension column {self.name!r} missing hierarchy binding")
        if self.kind == "measure" and self.is_text:
            raise SchemaError(f"measure column {self.name!r} cannot be a text column")
        object.__setattr__(self, "dtype", np.dtype(self.dtype))


class TableSchema:
    """Schema of a fact table: hierarchies + text levels + measures.

    Parameters
    ----------
    dimensions:
        Dimension hierarchies; one dimension column is created per level.
    measures:
        Measure column names (stored as float64).
    text_levels:
        ``(dimension, level_name)`` pairs whose raw values are strings.
    dim_dtype:
        Integer dtype for dimension columns (default int32, matching the
        paper's GPU-friendly layout).
    """

    def __init__(
        self,
        dimensions: Sequence[DimensionHierarchy],
        measures: Sequence[str] = ("value",),
        text_levels: Sequence[tuple[str, str]] = (),
        dim_dtype: np.dtype | str = np.int32,
    ):
        if not dimensions:
            raise SchemaError("a fact table needs at least one dimension")
        names = [d.name for d in dimensions]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate dimension names: {names}")
        if not measures and True:
            # count-only tables are permitted, but warn via empty tuple
            measures = ()
        if len(set(measures)) != len(measures):
            raise SchemaError(f"duplicate measure names: {list(measures)}")
        self._dimensions: tuple[DimensionHierarchy, ...] = tuple(dimensions)
        self._by_name: dict[str, DimensionHierarchy] = {d.name: d for d in dimensions}
        self._measures: tuple[str, ...] = tuple(measures)
        self._dim_dtype = np.dtype(dim_dtype)

        text_set = set()
        for dim, level in text_levels:
            if dim not in self._by_name:
                raise SchemaError(f"text level references unknown dimension {dim!r}")
            self._by_name[dim].resolution_of(level)  # raises if unknown
            text_set.add((dim, level))
        self._text_levels: frozenset[tuple[str, str]] = frozenset(text_set)

        # Materialise the ordered column list: dimension columns first
        # (grouped by dimension, coarse->fine, mirroring Figure 6), then
        # measures.
        cols: list[ColumnSpec] = []
        for d in self._dimensions:
            for r, level in enumerate(d.levels):
                cols.append(
                    ColumnSpec(
                        name=dimension_column(d.name, level.name),
                        kind="dimension",
                        dtype=self._dim_dtype,
                        dimension=d.name,
                        level_name=level.name,
                        resolution=r,
                        is_text=(d.name, level.name) in self._text_levels,
                    )
                )
        for m in self._measures:
            if m in {c.name for c in cols}:
                raise SchemaError(f"measure {m!r} collides with a dimension column name")
            cols.append(ColumnSpec(name=m, kind="measure", dtype=np.dtype(np.float64)))
        self._columns: tuple[ColumnSpec, ...] = tuple(cols)
        self._columns_by_name: dict[str, ColumnSpec] = {c.name: c for c in cols}

    # -- dimensions ------------------------------------------------------

    @property
    def dimensions(self) -> tuple[DimensionHierarchy, ...]:
        return self._dimensions

    @property
    def hierarchies(self) -> Mapping[str, DimensionHierarchy]:
        """Dimension hierarchies keyed by name (for query decomposition)."""
        return dict(self._by_name)

    def dimension(self, name: str) -> DimensionHierarchy:
        try:
            return self._by_name[name]
        except KeyError:
            raise DimensionError(
                f"unknown dimension {name!r}; known: {sorted(self._by_name)}"
            ) from None

    @property
    def num_dimensions(self) -> int:
        return len(self._dimensions)

    # -- columns -----------------------------------------------------------

    @property
    def columns(self) -> tuple[ColumnSpec, ...]:
        return self._columns

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self._columns)

    def column(self, name: str) -> ColumnSpec:
        try:
            return self._columns_by_name[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; known: {list(self._columns_by_name)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns_by_name

    def __iter__(self) -> Iterator[ColumnSpec]:
        return iter(self._columns)

    @property
    def dimension_columns(self) -> tuple[ColumnSpec, ...]:
        return tuple(c for c in self._columns if c.kind == "dimension")

    @property
    def measures(self) -> tuple[str, ...]:
        return self._measures

    @property
    def text_columns(self) -> tuple[ColumnSpec, ...]:
        """Columns whose raw values are strings (dictionary encoded)."""
        return tuple(c for c in self._columns if c.is_text)

    @property
    def text_levels(self) -> frozenset[tuple[str, str]]:
        return self._text_levels

    @property
    def total_columns(self) -> int:
        """:math:`C_{TOTAL}` of eq. 13: all columns of the fact table."""
        return len(self._columns)

    # -- sizing ------------------------------------------------------------

    def row_nbytes(self) -> int:
        """Bytes per row across all columns."""
        return int(sum(c.dtype.itemsize for c in self._columns))

    def table_nbytes(self, num_rows: int) -> int:
        """Total bytes of a table with ``num_rows`` rows (no padding)."""
        if num_rows < 0:
            raise SchemaError("num_rows must be non-negative")
        return self.row_nbytes() * num_rows

    def rows_for_bytes(self, target_bytes: float) -> int:
        """Row count whose table size best approximates ``target_bytes``.

        Used to scale the evaluation's "~4 GB fact table" to laptop-sized
        runs while keeping the schema identical.
        """
        return max(1, int(round(target_bytes / self.row_nbytes())))

    def __repr__(self) -> str:
        dims = ", ".join(d.name for d in self._dimensions)
        return (
            f"TableSchema(dims=[{dims}], {len(self.dimension_columns)} dim cols "
            f"({len(self.text_columns)} text), measures={list(self._measures)})"
        )
