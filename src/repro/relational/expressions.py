"""Typed expression trees with SQL three-valued-logic evaluation.

Expressions appear in select lists, ``WHERE`` predicates, join conditions and
aggregate arguments.  The lifecycle is:

1. the SQL parser (or a programmatic caller) builds *unbound* trees whose
   leaves are :class:`ColumnRef` objects naming columns;
2. :func:`bind` resolves every :class:`ColumnRef` against a
   :class:`~repro.relational.schema.Schema`, producing a tree whose leaves
   are :class:`BoundColumn` (positional) nodes;
3. :meth:`Expression.evaluate` computes a value for a row tuple.

NULL semantics follow SQL: any arithmetic or comparison with NULL yields
NULL; ``AND``/``OR`` implement Kleene 3VL; ``WHERE`` keeps a row only when
the predicate evaluates to ``True`` (not NULL).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .errors import ExecutionError, SchemaError
from .schema import Schema
from .types import sql_repr

Row = tuple


class Expression:
    """Base class for expression-tree nodes."""

    def evaluate(self, row: Row) -> Any:
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        return ()

    def sql(self) -> str:
        """Render as SQL text (used by the dialect formatters)."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.sql()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def evaluate(self, row: Row) -> Any:
        return self.value

    def sql(self) -> str:
        return sql_repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """An unbound reference to a column, optionally qualified (``E.F``)."""

    name: str
    qualifier: str | None = None

    def evaluate(self, row: Row) -> Any:
        raise ExecutionError(f"unbound column reference {self.sql()!r}")

    def sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class BoundColumn(Expression):
    """A column resolved to a tuple position."""

    index: int
    name: str = ""
    qualifier: str | None = None

    def evaluate(self, row: Row) -> Any:
        return row[self.index]

    def sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name or f"${self.index}"


class Parameter(Expression):
    """A scalar subquery's value: ``slots[name]``, which the plan's
    :class:`~repro.relational.physical.bind.Bind` sets once per
    execution.  Compared by identity — the compiler hands one object to
    every occurrence of the same subquery in a statement."""

    def __init__(self, slots: dict, name: str):
        self.slots = slots
        self.name = name

    def evaluate(self, row: Row) -> Any:
        return self.slots[self.name]

    def sql(self) -> str:
        return f"${self.name}"


def _null_if_any_null(fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapped(*args: Any) -> Any:
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapped


def _sql_div(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("division by zero")
    result = a / b
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return result


#: Bare (non-NULL-aware) implementations; C-level operators wherever the
#: semantics allow.  The interpreter wraps them with NULL propagation via
#: ``_null_if_any_null``; the compiler inlines the NULL checks instead.
_RAW_BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _sql_div,
    "%": operator.mod,
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "||": lambda a, b: str(a) + str(b),
}

_BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    op: _null_if_any_null(fn) for op, fn in _RAW_BINARY_OPS.items()
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic, comparison or string concatenation."""

    op: str
    left: Expression
    right: Expression

    def evaluate(self, row: Row) -> Any:
        fn = _BINARY_OPS.get(self.op)
        if fn is None:
            raise ExecutionError(f"unknown binary operator {self.op!r}")
        return fn(self.left.evaluate(row), self.right.evaluate(row))

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class And(Expression):
    """Kleene-logic conjunction over any number of conjuncts."""

    operands: tuple[Expression, ...]

    def evaluate(self, row: Row) -> Any:
        saw_null = False
        for operand in self.operands:
            value = operand.evaluate(row)
            if value is False:
                return False
            if value is None:
                saw_null = True
        return None if saw_null else True

    def children(self) -> tuple[Expression, ...]:
        return self.operands

    def sql(self) -> str:
        return "(" + " AND ".join(o.sql() for o in self.operands) + ")"


@dataclass(frozen=True)
class Or(Expression):
    """Kleene-logic disjunction."""

    operands: tuple[Expression, ...]

    def evaluate(self, row: Row) -> Any:
        saw_null = False
        for operand in self.operands:
            value = operand.evaluate(row)
            if value is True:
                return True
            if value is None:
                saw_null = True
        return None if saw_null else False

    def children(self) -> tuple[Expression, ...]:
        return self.operands

    def sql(self) -> str:
        return "(" + " OR ".join(o.sql() for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Kleene-logic negation: NOT NULL is NULL."""

    operand: Expression

    def evaluate(self, row: Row) -> Any:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        return not value

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def sql(self) -> str:
        return f"(NOT {self.operand.sql()})"


@dataclass(frozen=True)
class Negate(Expression):
    """Arithmetic negation."""

    operand: Expression

    def evaluate(self, row: Row) -> Any:
        value = self.operand.evaluate(row)
        return None if value is None else -value

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def sql(self) -> str:
        return f"(-{self.operand.sql()})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL`` — the only predicate that never yields NULL."""

    operand: Expression
    negated: bool = False

    def evaluate(self, row: Row) -> Any:
        value = self.operand.evaluate(row)
        return (value is not None) if self.negated else (value is None)

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {suffix})"


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)`` over literal lists, with NULL semantics."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def evaluate(self, row: Row) -> Any:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        saw_null = False
        for item in self.items:
            candidate = item.evaluate(row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return False if self.negated else True
        if saw_null:
            return None
        return True if self.negated else False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, *self.items)

    def sql(self) -> str:
        body = ", ".join(i.sql() for i in self.items)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} ({body}))"


@dataclass(frozen=True)
class CaseWhen(Expression):
    """Searched CASE expression."""

    branches: tuple[tuple[Expression, Expression], ...]
    default: Expression | None = None

    def evaluate(self, row: Row) -> Any:
        for condition, result in self.branches:
            if condition.evaluate(row) is True:
                return result.evaluate(row)
        if self.default is not None:
            return self.default.evaluate(row)
        return None

    def children(self) -> tuple[Expression, ...]:
        kids: list[Expression] = []
        for condition, result in self.branches:
            kids.extend((condition, result))
        if self.default is not None:
            kids.append(self.default)
        return tuple(kids)

    def sql(self) -> str:
        parts = ["CASE"]
        for condition, result in self.branches:
            parts.append(f"WHEN {condition.sql()} THEN {result.sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.sql()}")
        parts.append("END")
        return " ".join(parts)


def _coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _least(*args: Any) -> Any:
    present = [a for a in args if a is not None]
    return min(present) if present else None


def _greatest(*args: Any) -> Any:
    present = [a for a in args if a is not None]
    return max(present) if present else None


_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "sqrt": _null_if_any_null(math.sqrt),
    "abs": _null_if_any_null(abs),
    "floor": _null_if_any_null(lambda x: int(math.floor(x))),
    "ceil": _null_if_any_null(lambda x: int(math.ceil(x))),
    "ln": _null_if_any_null(math.log),
    "exp": _null_if_any_null(math.exp),
    "power": _null_if_any_null(lambda x, y: x ** y),
    "mod": _null_if_any_null(lambda a, b: a % b),
    "coalesce": _coalesce,
    "least": _least,
    "greatest": _greatest,
    "sign": _null_if_any_null(lambda x: (x > 0) - (x < 0)),
    "round": _null_if_any_null(lambda x, *d: round(x, *[int(v) for v in d])),
}

#: Aggregate function names, recognised by the parser and the aggregate
#: operator.  ``avg`` is included for completeness though the paper's
#: algorithms only need sum/min/max/count.
AGGREGATE_FUNCTIONS = frozenset({"sum", "min", "max", "count", "avg"})


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call.

    Aggregate calls are *not* evaluated here; the binder hoists them out of
    expressions and the aggregate physical operator computes them.  ``rand()``
    draws from the engine RNG registered via :func:`set_rng` so tests can be
    deterministic (the paper's MIS uses the RDBMS rand function).
    """

    name: str
    args: tuple[Expression, ...] = ()

    def evaluate(self, row: Row) -> Any:
        lowered = self.name.lower()
        if lowered == "rand" or lowered == "random":
            return _RNG.random()
        fn = _SCALAR_FUNCTIONS.get(lowered)
        if fn is None:
            raise ExecutionError(f"unknown function {self.name!r}")
        return fn(*(a.evaluate(row) for a in self.args))

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def sql(self) -> str:
        return f"{self.name}({', '.join(a.sql() for a in self.args)})"


_RNG = random.Random(0)


def set_rng(rng: random.Random) -> None:
    """Install the random generator used by ``rand()`` (for reproducibility)."""
    global _RNG
    _RNG = rng


def is_aggregate_call(expr: Expression) -> bool:
    """True when *expr* itself is an aggregate function call."""
    return isinstance(expr, FunctionCall) and expr.name.lower() in AGGREGATE_FUNCTIONS


def contains_aggregate(expr: Expression) -> bool:
    """True when *expr* contains an aggregate call anywhere."""
    if is_aggregate_call(expr):
        return True
    return any(contains_aggregate(child) for child in expr.children())


def reads_parameter(expr: Expression) -> bool:
    """True when *expr* reads a :class:`Parameter` anywhere."""
    return isinstance(expr, Parameter) \
        or any(map(reads_parameter, expr.children()))


def bind(expr: Expression, schema: Schema) -> Expression:
    """Resolve every :class:`ColumnRef` in *expr* against *schema*.

    Returns a new tree with :class:`BoundColumn` leaves; raises
    :class:`~repro.relational.errors.BindError` (via SchemaError) when a name
    is missing or ambiguous.
    """
    if isinstance(expr, ColumnRef):
        index = schema.index_of(expr.name, expr.qualifier)
        return BoundColumn(index, expr.name, expr.qualifier)
    if isinstance(expr, (Literal, BoundColumn, Parameter)):
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, bind(expr.left, schema), bind(expr.right, schema))
    if isinstance(expr, And):
        return And(tuple(bind(o, schema) for o in expr.operands))
    if isinstance(expr, Or):
        return Or(tuple(bind(o, schema) for o in expr.operands))
    if isinstance(expr, Not):
        return Not(bind(expr.operand, schema))
    if isinstance(expr, Negate):
        return Negate(bind(expr.operand, schema))
    if isinstance(expr, IsNull):
        return IsNull(bind(expr.operand, schema), expr.negated)
    if isinstance(expr, InList):
        return InList(bind(expr.operand, schema),
                      tuple(bind(i, schema) for i in expr.items), expr.negated)
    if isinstance(expr, CaseWhen):
        branches = tuple((bind(c, schema), bind(r, schema)) for c, r in expr.branches)
        default = bind(expr.default, schema) if expr.default is not None else None
        return CaseWhen(branches, default)
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(bind(a, schema) for a in expr.args))
    raise SchemaError(f"cannot bind expression node {type(expr).__name__}")


# -- expression compilation ---------------------------------------------------
#
# ``Expression.evaluate`` walks the tree per row: every node costs an
# attribute lookup, a method call and (for operators) a dict probe.  The
# compiler below lowers a *bound* tree once into nested Python closures, so
# per-row evaluation is only closure calls — and the hottest shape of all,
# a tuple of :class:`BoundColumn` join keys, becomes a single
# ``operator.itemgetter``, which runs entirely in C.


def compile_expression(expr: Expression) -> Callable[[Row], Any]:
    """Lower a bound expression tree to a single-row evaluator closure.

    The returned callable is semantically identical to ``expr.evaluate``
    (SQL three-valued logic included); it exists purely to strip the
    interpretive overhead from per-row hot loops.  *expr* must already be
    bound (no :class:`ColumnRef` leaves).
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, BoundColumn):
        return operator.itemgetter(expr.index)
    if isinstance(expr, BinaryOp):
        raw = _RAW_BINARY_OPS.get(expr.op)
        if raw is None:
            raise ExecutionError(f"unknown binary operator {expr.op!r}")
        if isinstance(expr.left, BoundColumn) \
                and isinstance(expr.right, BoundColumn):
            # column-op-column (join keys, semiring ⊙): fetch both
            # operands with one two-slot itemgetter call.
            pair = operator.itemgetter(expr.left.index, expr.right.index)

            def eval_binary_columns(row: Row) -> Any:
                a, b = pair(row)
                if a is None or b is None:
                    return None
                return raw(a, b)

            return eval_binary_columns
        if isinstance(expr.right, Literal) and expr.right.value is not None:
            # expr-op-constant (damping factors, epsilon thresholds):
            # close over the constant, skipping its evaluator call and
            # NULL check per row.
            constant = expr.right.value
            left = compile_expression(expr.left)

            def eval_binary_rconst(row: Row) -> Any:
                a = left(row)
                if a is None:
                    return None
                return raw(a, constant)

            return eval_binary_rconst
        if isinstance(expr.left, Literal) and expr.left.value is not None:
            constant = expr.left.value
            right = compile_expression(expr.right)

            def eval_binary_lconst(row: Row) -> Any:
                b = right(row)
                if b is None:
                    return None
                return raw(constant, b)

            return eval_binary_lconst
        left = compile_expression(expr.left)
        right = compile_expression(expr.right)

        # NULL propagation inlined: cheaper than the varargs
        # _null_if_any_null wrapper (no argument tuple, no any()-scan)
        # and *raw* is a C-level operator for the arithmetic/comparison
        # cases, which dominate per-row evaluation in joins and
        # projections.
        def eval_binary(row: Row) -> Any:
            a = left(row)
            if a is None:
                return None
            b = right(row)
            if b is None:
                return None
            return raw(a, b)

        return eval_binary
    if isinstance(expr, And):
        operands = tuple(compile_expression(o) for o in expr.operands)

        def eval_and(row: Row) -> Any:
            saw_null = False
            for operand in operands:
                value = operand(row)
                if value is False:
                    return False
                if value is None:
                    saw_null = True
            return None if saw_null else True

        return eval_and
    if isinstance(expr, Or):
        operands = tuple(compile_expression(o) for o in expr.operands)

        def eval_or(row: Row) -> Any:
            saw_null = False
            for operand in operands:
                value = operand(row)
                if value is True:
                    return True
                if value is None:
                    saw_null = True
            return None if saw_null else False

        return eval_or
    if isinstance(expr, Not):
        operand = compile_expression(expr.operand)

        def eval_not(row: Row) -> Any:
            value = operand(row)
            return None if value is None else not value

        return eval_not
    if isinstance(expr, Negate):
        operand = compile_expression(expr.operand)

        def eval_negate(row: Row) -> Any:
            value = operand(row)
            return None if value is None else -value

        return eval_negate
    if isinstance(expr, IsNull):
        operand = compile_expression(expr.operand)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, InList):
        operand = compile_expression(expr.operand)
        items = tuple(compile_expression(i) for i in expr.items)
        negated = expr.negated

        def eval_in(row: Row) -> Any:
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for item in items:
                candidate = item(row)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return eval_in
    if isinstance(expr, CaseWhen):
        branches = tuple((compile_expression(c), compile_expression(r))
                         for c, r in expr.branches)
        default = (compile_expression(expr.default)
                   if expr.default is not None else None)

        def eval_case(row: Row) -> Any:
            for condition, result in branches:
                if condition(row) is True:
                    return result(row)
            if default is not None:
                return default(row)
            return None

        return eval_case
    if isinstance(expr, FunctionCall):
        lowered = expr.name.lower()
        if lowered in ("rand", "random"):
            # rand() reads the module RNG at call time so set_rng keeps
            # working on compiled plans.
            return lambda row: _RNG.random()
        fn = _SCALAR_FUNCTIONS.get(lowered)
        if fn is None:
            raise ExecutionError(f"unknown function {expr.name!r}")
        args = tuple(compile_expression(a) for a in expr.args)
        if len(args) == 1:
            arg0 = args[0]
            return lambda row: fn(arg0(row))
        return lambda row: fn(*(a(row) for a in args))
    if isinstance(expr, ColumnRef):
        raise ExecutionError(
            f"cannot compile unbound column reference {expr.sql()!r}")
    # Unknown node (e.g. a parser extension): fall back to the interpreter.
    return expr.evaluate


def compile_key_function(exprs: Sequence[Expression]
                         ) -> Callable[[Row], tuple]:
    """Compile bound key expressions into a row → key-tuple extractor.

    When every key is a plain :class:`BoundColumn` — the common equi-join
    case — the extractor is an ``operator.itemgetter``, avoiding any Python
    frames per row.
    """
    exprs = tuple(exprs)
    if exprs and all(isinstance(e, BoundColumn) for e in exprs):
        indexes = tuple(e.index for e in exprs)  # type: ignore[union-attr]
        if len(indexes) == 1:
            getter = operator.itemgetter(indexes[0])
            return lambda row: (getter(row),)
        return operator.itemgetter(*indexes)
    evaluators = tuple(compile_expression(e) for e in exprs)
    # Specialised builders for the common small arities: a literal tuple
    # display beats tuple(generator) by an allocation and a frame per row.
    if len(evaluators) == 1:
        e0, = evaluators
        return lambda row: (e0(row),)
    if len(evaluators) == 2:
        e0, e1 = evaluators
        return lambda row: (e0(row), e1(row))
    if len(evaluators) == 3:
        e0, e1, e2 = evaluators
        return lambda row: (e0(row), e1(row), e2(row))
    if len(evaluators) == 4:
        e0, e1, e2, e3 = evaluators
        return lambda row: (e0(row), e1(row), e2(row), e3(row))
    return lambda row: tuple(e(row) for e in evaluators)


def single_column_getter(exprs: Sequence[Expression]
                         ) -> Callable[[Row], Any] | None:
    """An ``itemgetter`` for a single BoundColumn key, else None.

    Batch kernels use this to map raw key *values* (not 1-tuples) over a
    chunk of rows in C.
    """
    exprs = tuple(exprs)
    if len(exprs) == 1 and isinstance(exprs[0], BoundColumn):
        return operator.itemgetter(exprs[0].index)
    return None


def column_refs(expr: Expression) -> list[ColumnRef]:
    """All unbound column references in *expr*, in evaluation order."""
    refs: list[ColumnRef] = []
    if isinstance(expr, ColumnRef):
        refs.append(expr)
    for child in expr.children():
        refs.extend(column_refs(child))
    return refs


# -- terse constructors used throughout the codebase and tests ---------------

def col(name: str, qualifier: str | None = None) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`; accepts ``col("E.F")`` too."""
    if qualifier is None and "." in name:
        qualifier, name = name.split(".", 1)
    return ColumnRef(name, qualifier)


def lit(value: Any) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def eq(left: Expression, right: Expression) -> BinaryOp:
    return BinaryOp("=", left, right)
