"""Bind: the values a plan computes once per execution."""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from ..relation import Relation, Row
from ..schema import Schema
from .base import PhysicalOperator

#: ``(slot name, subplan, what the slot holds of the subplan's result)``
Binding = tuple[str, PhysicalOperator, Callable[[Relation], object]]


class Bind(PhysicalOperator):
    """Runs each subplan once per execution, before its child, and puts
    what it yields in ``slots``: a non-recursive CTE's relation, read by
    the child's :class:`~.scan.BindingScan`\\ s, or a scalar subquery's
    value, read by its :class:`~repro.relational.expressions.Parameter`.
    Planning runs nothing; a kept plan re-runs its subqueries and CTEs
    every time it executes.  Once an execution is over, a CTE's slot
    holds the empty relation it was planned over again, so a kept plan
    holds no CTE result; a scalar's one value stays (a column the child
    computes lazily may read it after the child returns)."""

    label = "Bind"

    def __init__(self, child: PhysicalOperator, slots: dict,
                 bindings: Sequence[Binding]):
        self.child = child
        self.slots = slots
        self.bindings = tuple(bindings)
        #: what the slots hold between executions
        self._idle = {name: slots[name] for name, _, _ in self.bindings
                      if name in slots}

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child, *(plan for _, plan, _ in self.bindings))

    def _bind(self) -> None:
        for name, plan, value in self.bindings:
            self.slots[name] = value(plan.execute())

    def rows(self) -> Iterator[Row]:
        try:
            self._bind()
            yield from self.child.rows()
        finally:
            self.slots.update(self._idle)

    def execute(self) -> Relation:
        try:
            self._bind()
            return self.child.execute()
        finally:
            self.slots.update(self._idle)

    def detail(self) -> str:
        return ", ".join(name for name, _, _ in self.bindings)
