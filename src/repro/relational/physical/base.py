"""Base class and EXPLAIN support for physical operators."""

from __future__ import annotations

from typing import Iterator

from ..relation import Relation, Row
from ..schema import Schema
from .analyze import observed


class PhysicalOperator:
    """One node of an executable plan tree.  Each class's ``rows()`` and
    ``execute()`` are wrapped by :func:`~.analyze.observed`: the
    boundaries where a recording statement's stats are taken."""

    #: Human-readable operator name shown by EXPLAIN.
    label = "physical"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in ("rows", "execute"):
            method = cls.__dict__.get(name)
            if method is not None:
                setattr(cls, name, observed(method))

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def rows(self) -> Iterator[Row]:
        """Stream output rows.  May be consumed at most once per execution."""
        raise NotImplementedError

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def detail(self) -> str:
        """Extra EXPLAIN annotation (join keys, predicates, ...)."""
        return ""

    @observed
    def execute(self) -> Relation:
        """Materialise the full output."""
        return Relation(self.schema, self.rows())


def explain_plan(root: PhysicalOperator, actuals=None) -> str:
    """Render a plan tree as indented text, one operator per line; with
    *actuals*, each line ends with ``actuals(node)`` (EXPLAIN ANALYZE).

    Tests assert on these strings to pin down dialect plan differences
    (e.g. the PostgreSQL profile choosing Merge Join on unanalyzed temp
    tables, per the paper's Exp-A discussion).
    """
    lines: list[str] = []

    def visit(node: PhysicalOperator, depth: int) -> None:
        annotation = node.detail()
        suffix = f" [{annotation}]" if annotation else ""
        estimate = getattr(node, "estimated_rows", None)
        if estimate is not None:
            suffix += f" (est_rows={estimate})"
        if actuals is not None:
            suffix += actuals(node)
        lines.append("  " * depth + f"-> {node.label}{suffix}")
        for child in node.children():
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)
