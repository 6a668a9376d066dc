"""Statement-level AST for the SQL subset and the with+ extensions.

Expression nodes come from :mod:`repro.relational.expressions`; this module
adds the three expression forms that embed subqueries (``IN (SELECT ...)``,
``EXISTS``, scalar subqueries) and the statement shapes.

The with+ constructs (Fig. 4 of the paper) are first-class here:

* :class:`CteBranch` carries an optional ``COMPUTED BY`` block — an ordered
  list of :class:`ComputedDefinition` auxiliary relations local to that
  branch;
* :class:`CommonTableExpression` records how its branches are combined:
  ``UNION ALL`` (SQL'99), ``UNION``, or the paper's ``UNION BY UPDATE`` with
  optional key attributes, plus the ``MAXRECURSION`` hint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Union

from ..expressions import Expression


# -- subquery-bearing expression nodes ---------------------------------------


@dataclass(frozen=True)
class InSubquery(Expression):
    """``operand [NOT] IN (SELECT ...)`` — compiled to a semi/anti join."""

    operand: Expression
    subquery: "Statement"
    negated: bool = False

    def evaluate(self, row):  # pragma: no cover - rewritten before execution
        raise NotImplementedError("IN-subquery must be compiled, not evaluated")

    def children(self):
        return (self.operand,)

    def sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} (<subquery>))"


@dataclass(frozen=True)
class ExistsSubquery(Expression):
    """``[NOT] EXISTS (SELECT ...)`` — compiled to a semi/anti join."""

    subquery: "Statement"
    negated: bool = False

    def evaluate(self, row):  # pragma: no cover - rewritten before execution
        raise NotImplementedError("EXISTS must be compiled, not evaluated")

    def sql(self) -> str:
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return f"({keyword} (<subquery>))"


@dataclass(frozen=True)
class WindowCall(Expression):
    """``agg(arg) OVER (PARTITION BY cols)`` — the analytical-function form
    PostgreSQL/Oracle allow inside plain recursive ``with`` (Fig 9)."""

    function: str
    argument: Expression | None
    partition_by: tuple[Expression, ...]

    def evaluate(self, row):  # pragma: no cover - rewritten before execution
        raise NotImplementedError("window call must be compiled, not evaluated")

    def children(self):
        kids = () if self.argument is None else (self.argument,)
        return kids + self.partition_by

    def sql(self) -> str:
        arg = self.argument.sql() if self.argument is not None else "*"
        partition = ", ".join(p.sql() for p in self.partition_by)
        return f"{self.function}({arg}) OVER (PARTITION BY {partition})"


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """A parenthesised SELECT used as a scalar value."""

    subquery: "Statement"

    def evaluate(self, row):  # pragma: no cover - rewritten before execution
        raise NotImplementedError("scalar subquery must be compiled")

    def sql(self) -> str:
        return "(<scalar subquery>)"


# -- FROM sources --------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    """A base table, CTE or temp table named in FROM, with optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubquerySource:
    """A derived table: ``(SELECT ...) AS alias``."""

    statement: "Statement"
    alias: str


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT = "left outer"
    RIGHT = "right outer"
    FULL = "full outer"
    CROSS = "cross"


@dataclass(frozen=True)
class JoinSource:
    """Explicit ``A JOIN B ON cond`` syntax in FROM."""

    left: "FromSource"
    right: "FromSource"
    kind: JoinKind
    condition: Expression | None


FromSource = Union[TableRef, SubquerySource, JoinSource]


# -- SELECT --------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry; ``star`` marks ``*`` / ``alias.*``."""

    expression: Expression | None
    alias: str | None = None
    star: bool = False
    star_qualifier: str | None = None


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    items: tuple[SelectItem, ...]
    sources: tuple[FromSource, ...] = ()
    where: Expression | None = None
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False


class SetOpKind(enum.Enum):
    UNION_ALL = "union all"
    UNION = "union"
    EXCEPT = "except"
    INTERSECT = "intersect"


@dataclass(frozen=True)
class SetOperation:
    left: "Statement"
    kind: SetOpKind
    right: "Statement"


# -- WITH / with+ ----------------------------------------------------------------


class UnionKind(enum.Enum):
    """How the branches of a recursive CTE are combined each iteration."""

    UNION_ALL = "union all"
    UNION = "union"
    UNION_BY_UPDATE = "union by update"


@dataclass(frozen=True)
class ComputedDefinition:
    """One ``name(cols) AS select ...;`` inside a COMPUTED BY block."""

    name: str
    columns: tuple[str, ...]
    statement: "Statement"


@dataclass(frozen=True)
class CteBranch:
    """One query of the CTE body, with its optional COMPUTED BY block.

    A parenthesised branch may be a set expression (the paper allows any
    set operation between initial queries), hence ``Statement``.
    """

    statement: "Statement"
    computed_by: tuple[ComputedDefinition, ...] = ()


@dataclass(frozen=True)
class SearchClause:
    """Oracle's ``SEARCH DEPTH|BREADTH FIRST BY cols SET seq_col``.

    Orders the rows of a recursive CTE by their derivation order —
    breadth-first (iteration levels) or depth-first (pre-order over the
    derivation forest) — exposing the rank in *set_column*.
    """

    order: str                    # "depth" | "breadth"
    by: tuple[str, ...]
    set_column: str


@dataclass(frozen=True)
class CycleClause:
    """Oracle's ``CYCLE cols SET flag TO value DEFAULT value``.

    Marks a derived row whose *cols* values already occurred on its own
    derivation path; marked rows are not expanded further (the recursion
    terminates per tuple) but remain in the result with the flag set.
    """

    columns: tuple[str, ...]
    set_column: str
    cycle_value: object
    default_value: object


@dataclass(frozen=True)
class CommonTableExpression:
    """``name(cols) AS ( branch [sep branch]... [MAXRECURSION n] )``
    optionally followed by SEARCH / CYCLE clauses (Oracle's looping
    control, Table 1 section E)."""

    name: str
    columns: tuple[str, ...]
    branches: tuple[CteBranch, ...]
    union_kind: UnionKind = UnionKind.UNION_ALL
    update_key: tuple[str, ...] = ()
    maxrecursion: int | None = None
    search_clause: SearchClause | None = None
    cycle_clause: CycleClause | None = None

    @property
    def is_plain_definition(self) -> bool:
        """True for single-branch, non-recursive definitions."""
        return len(self.branches) == 1


@dataclass(frozen=True)
class WithStatement:
    ctes: tuple[CommonTableExpression, ...]
    body: "Statement"
    recursive: bool = False


@dataclass(frozen=True)
class AnalyzeStatement:
    """``ANALYZE [table]`` — eagerly refresh table statistics.

    With no table name, every table in the catalog is analyzed.  This is
    the manual counterpart of the cost-based policy's lazy auto-refresh.
    """

    table: str | None = None


Statement = Union[SelectStatement, SetOperation, WithStatement,
                  AnalyzeStatement]


def walk(node) -> Iterator:
    """*node* — a statement, FROM item or expression — then every
    statement, FROM item and expression node inside it: subqueries,
    derived tables and CTE branches included (not COMPUTED BY blocks)."""
    yield node
    if isinstance(node, SelectStatement):
        parts = [item.expression for item in node.items]
        parts += [*node.sources, node.where, *node.group_by, node.having]
        parts += [order.expression for order in node.order_by]
    elif isinstance(node, SetOperation):
        parts = [node.left, node.right]
    elif isinstance(node, WithStatement):
        parts = [branch.statement for cte in node.ctes
                 for branch in cte.branches] + [node.body]
    elif isinstance(node, SubquerySource):
        parts = [node.statement]
    elif isinstance(node, JoinSource):
        parts = [node.left, node.right, node.condition]
    elif isinstance(node, (InSubquery, ExistsSubquery, ScalarSubquery)):
        parts = [*node.children(), node.subquery]
    elif isinstance(node, Expression):
        parts = node.children()
    else:
        parts = ()
    for part in parts:
        if part is not None:
            yield from walk(part)
