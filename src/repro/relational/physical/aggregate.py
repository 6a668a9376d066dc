"""Aggregation operators: hash-based and sort-based.

Hash aggregation (one dict pass) is the plan Oracle's profile uses; sort
aggregation (sort the input on the grouping key, then fold runs) is the
costlier strategy the DB2 profile is configured with, and the one the
PostgreSQL profile falls back to alongside merge joins.  Both produce
identical results; only the constant factors differ — which is the point.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from ..expressions import Expression, bind, compile_expression, compile_key_function
from ..relation import AggregateSpec, _finish_aggregate
from ..schema import Column, Schema
from ..types import SqlType
from .base import PhysicalOperator


class _AggregateBase(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, keys: Sequence[Expression],
                 aggregates: Sequence[AggregateSpec],
                 key_aliases: Sequence[str] | None = None):
        self.child = child
        self.keys = tuple(keys)
        self.aggregates = tuple(aggregates)
        self._bound_keys = [bind(k, child.schema) for k in keys]
        self._bound_args = [bind(a.argument, child.schema)
                            if a.argument is not None else None
                            for a in aggregates]
        self._key_fn = compile_key_function(self._bound_keys)
        self._arg_fns = [compile_expression(a) if a is not None else None
                         for a in self._bound_args]
        if key_aliases is None:
            key_aliases = []
            for key in keys:
                name = getattr(key, "name", None) or key.sql()
                key_aliases.append(name)
        columns = [Column(alias, SqlType.DOUBLE)
                   for alias in key_aliases]
        columns += [Column(a.alias, SqlType.DOUBLE) for a in self.aggregates]
        self._schema = Schema(tuple(columns))

    @property
    def schema(self) -> Schema:
        return self._schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def detail(self) -> str:
        keys = ", ".join(k.sql() for k in self.keys)
        aggs = ", ".join(f"{a.function}(...) AS {a.alias}"
                         for a in self.aggregates)
        return f"group by [{keys}] compute [{aggs}]" if keys else aggs

    def _emit(self, key: tuple, buckets: list[list[Any]]) -> tuple:
        return key + tuple(_finish_aggregate(spec.function, values)
                           for spec, values in zip(self.aggregates, buckets))

    def _hash_rows(self) -> Iterator[tuple]:
        """Single-pass dict grouping of the child's rows: per group and
        aggregate the non-NULL argument values, folded by :meth:`_emit`
        in first-seen group order.  A plain generator, not an operator's
        ``rows``, so the batch twin runs it as its row loop without a
        second stats record."""
        key_fn = self._key_fn
        arg_fns = self._arg_fns
        groups: dict[tuple, list[list[Any]]] = {}
        order: list[tuple] = []
        for row in self.child.rows():
            key = key_fn(row)
            bucket = groups.get(key)
            if bucket is None:
                bucket = [[] for _ in self.aggregates]
                groups[key] = bucket
                order.append(key)
            for slot, arg in zip(bucket, arg_fns):
                if arg is None:
                    slot.append(1)
                else:
                    value = arg(row)
                    if value is not None:
                        slot.append(value)
        if not self.keys and not groups:
            groups[()] = [[] for _ in self.aggregates]
            order.append(())
        for key in order:
            yield self._emit(key, groups[key])


class HashAggregate(_AggregateBase):
    """Single-pass dict-based grouping."""

    label = "Hash Aggregate"

    def rows(self) -> Iterator[tuple]:
        yield from self._hash_rows()


class SortAggregate(_AggregateBase):
    """Sort the input on the grouping key, then fold consecutive runs."""

    label = "Sort Aggregate"

    def rows(self) -> Iterator[tuple]:
        key_fn = self._key_fn
        arg_fns = self._arg_fns
        annotated = [(key_fn(row), row) for row in self.child.rows()]
        annotated.sort(key=lambda kr: tuple((v is None, v) for v in kr[0]))
        if not annotated:
            if not self.keys:
                yield self._emit((), [[] for _ in self.aggregates])
            return
        current_key = annotated[0][0]
        bucket: list[list[Any]] = [[] for _ in self.aggregates]
        for key, row in annotated:
            if key != current_key:
                yield self._emit(current_key, bucket)
                current_key = key
                bucket = [[] for _ in self.aggregates]
            for slot, arg in zip(bucket, arg_fns):
                if arg is None:
                    slot.append(1)
                else:
                    value = arg(row)
                    if value is not None:
                        slot.append(value)
        yield self._emit(current_key, bucket)
