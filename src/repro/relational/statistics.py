"""Table statistics used by the planner and the cost-based optimizer.

The paper attributes PostgreSQL's sub-optimal recursive-query plans to
missing statistics on temporary tables.  We model exactly that: statistics
are collected by ``ANALYZE`` (here :meth:`TableStatistics.refresh`), the
planner consults them when choosing join strategies, and — like PostgreSQL —
**temporary tables are not auto-analyzed** (``Database.register``
analyzes base tables only), so a dialect that relies on fresh statistics
degrades to its fallback plan for them.

The cost-based optimizer (:mod:`repro.relational.optimizer`) goes further:
it *lazily* refreshes stale statistics on the first cardinality estimate
after an invalidation, so its estimates never read stale or empty numbers.
Per column it keeps distinct counts, null fractions, min/max bounds and the
most common values (MCVs) with their frequencies — the inputs to the
equality/range selectivity formulas below.

ANALYZE has two forms with one result.  :meth:`TableStatistics.refresh`
walks the rows; :meth:`TableStatistics.refresh_from_vectors` computes the
same numbers, ``repr`` for ``repr``, from one typed numpy vector per
column — what ``Table.analyze`` uses when a columnar store already holds
them, so re-analyzing a streamed table after each batch is vector work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from .physical.blocks import unique_runs

if TYPE_CHECKING:  # pragma: no cover
    from .relation import Relation
    from .schema import Schema

#: How many most-common values ANALYZE keeps per column.
MCV_LIMIT = 10

#: Fallback equality selectivity when no statistics are available.
DEFAULT_EQ_SELECTIVITY = 0.1

#: Fallback range (<, <=, >, >=) selectivity.
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0


@dataclass
class ColumnStatistics:
    """Per-column summary: distinct count, null fraction, min/max, MCVs."""

    distinct_count: int = 0
    null_fraction: float = 0.0
    min_value: Any = None
    max_value: Any = None
    #: ``(value, fraction_of_rows)`` pairs for the most common values,
    #: most frequent first.
    most_common: tuple[tuple[Any, float], ...] = ()

    def equality_selectivity(self, value: Any = None) -> float:
        """Fraction of rows matching ``column = value``.

        With a concrete *value* the MCV list is consulted first; otherwise
        (or when the value is not an MCV) the uniform 1/ndv estimate over
        the non-MCV remainder applies.
        """
        if self.distinct_count <= 0:
            return DEFAULT_EQ_SELECTIVITY
        if value is not None and self.most_common:
            for mcv, fraction in self.most_common:
                if mcv == value:
                    return fraction
            remainder = max(0.0, 1.0 - self.null_fraction
                            - sum(f for _, f in self.most_common))
            rest = self.distinct_count - len(self.most_common)
            if rest > 0:
                return remainder / rest
        return (1.0 - self.null_fraction) / self.distinct_count

    def range_selectivity(self, op: str, value: Any) -> float:
        """Fraction of rows matching ``column <op> value`` via min/max
        interpolation, when the bounds are numeric."""
        lo, hi = self.min_value, self.max_value
        if not (isinstance(lo, (int, float)) and isinstance(hi, (int, float))
                and isinstance(value, (int, float)) and hi > lo):
            return DEFAULT_RANGE_SELECTIVITY
        fraction = (value - lo) / (hi - lo)
        fraction = min(1.0, max(0.0, fraction))
        if op in ("<", "<="):
            return max(fraction * (1.0 - self.null_fraction), 1e-6)
        if op in (">", ">="):
            return max((1.0 - fraction) * (1.0 - self.null_fraction), 1e-6)
        return DEFAULT_RANGE_SELECTIVITY


@dataclass
class TableStatistics:
    """Row count plus per-column stats; ``fresh`` marks an analyzed table.

    ``version`` counts invalidations (i.e. table mutations).  The optimizer
    uses it both to know when a lazy re-ANALYZE is due and to fingerprint
    hash-join build sides cached across recursive-loop iterations.
    """

    row_count: int = 0
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)
    fresh: bool = False
    version: int = 0

    def refresh(self, relation: "Relation") -> None:
        """Recompute all statistics from *relation* (the ANALYZE operation)."""
        self.row_count = len(relation)
        self.columns = {}
        for pos, column in enumerate(relation.schema.columns):
            values = [row[pos] for row in relation.rows]
            non_null = [v for v in values if v is not None]
            most_common: tuple[tuple[Any, float], ...] = ()
            if non_null:
                try:
                    counts = Counter(non_null).most_common(MCV_LIMIT)
                    most_common = tuple((value, count / len(values))
                                        for value, count in counts)
                except TypeError:  # unhashable values: skip MCVs
                    most_common = ()
            stats = ColumnStatistics(
                distinct_count=len(set(non_null)),
                null_fraction=(1 - len(non_null) / len(values)) if values else 0.0,
                min_value=min(non_null) if non_null else None,
                max_value=max(non_null) if non_null else None,
                most_common=most_common,
            )
            self.columns[column.name.lower()] = stats
        self.fresh = True

    def refresh_from_vectors(self, schema: "Schema", vectors: list) -> bool:
        """ANALYZE from one plain int64/float64 typed vector per column
        (:class:`~repro.relational.physical.blocks.ArrayVector`, no
        ``ints`` flags): the same statistics :meth:`refresh` computes from
        the rows, ``repr`` for ``repr``.  False, nothing changed, for an
        empty table or a NaN (the row path counts NaN objects apart)."""
        row_count = len(vectors[0].data)
        if not row_count or any(
                vector.data.dtype == np.float64
                and np.isnan(vector.data).any() for vector in vectors):
            return False
        self.columns = {
            column.name.lower(): _vector_column_statistics(vector.data)
            for column, vector in zip(schema.columns, vectors)}
        self.row_count = row_count
        self.fresh = True
        return True

    def invalidate(self) -> None:
        """Mark statistics stale (called on writes)."""
        self.fresh = False
        self.version += 1

    def column(self, name: str) -> ColumnStatistics | None:
        return self.columns.get(name.lower())

    def selectivity_of_equality(self, column: str) -> float:
        """Estimated fraction of rows matching an equality predicate."""
        stats = self.columns.get(column.lower())
        if stats is None or stats.distinct_count == 0:
            return DEFAULT_EQ_SELECTIVITY
        return 1.0 / stats.distinct_count


def _vector_column_statistics(data) -> ColumnStatistics:
    """:meth:`TableStatistics.refresh`'s per-column pass over a non-empty,
    NULL- and NaN-free numpy vector.  :func:`~.physical.blocks.unique_runs`
    (int64) or ``np.unique`` (float64) gives each distinct value (``0.0``
    and ``-0.0`` are one) its count and its first row: MCVs order by
    count, ties by first row (what ``Counter.most_common`` keeps), and
    each value — like ``min``/``max`` via ``argmin``/``argmax`` — is read
    at the first row holding it, the object Python would have kept, down
    to the sign of a zero."""
    n = len(data)
    low, high = data.argmin(), data.argmax()
    if data.dtype == np.int64:
        _, first, _, counts = unique_runs(data)
    else:
        _, first, counts = np.unique(data, return_index=True,
                                     return_counts=True)
    top = np.lexsort((first, -counts))[:MCV_LIMIT]
    most_common = tuple(
        (value, count / n) for value, count in zip(
            data[first[top]].tolist(), counts[top].tolist()))
    return ColumnStatistics(
        distinct_count=len(counts),
        null_fraction=0.0,
        min_value=data[low].item(),
        max_value=data[high].item(),
        most_common=most_common)
