"""Scenario IR: a structured, shrinkable representation of a fuzz program.

A :class:`Scenario` bundles generated tables with a query IR that renders
to SQL text.  Keeping the program structured (rather than a string) buys
three things:

* the shrinker can remove whole clauses (a join, a WHERE conjunct, a
  GROUP BY) and rebuild valid SQL, instead of chopping characters;
* the column-rename metamorphic oracle can re-render the *same* program
  under a renaming and know the rewrite is sound;
* the TLP oracle can graft a partitioning predicate onto a query without
  re-parsing it.

Expressions are plain nested tuples (``("col", alias, name)``,
``("lit", value)``, ``("bin", op, a, b)``, ...) — hashable, comparable,
and trivially serialisable into generated regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

# -- expressions -------------------------------------------------------------
#
# ("col", alias, column)            qualified column reference
# ("lit", value)                    literal (int/float/str/None/bool)
# ("bin", op, left, right)          arithmetic / comparison / ||
# ("func", name, arg, ...)          scalar function call
# ("agg", function, arg_or_None)    aggregate call (HAVING re-renders the
#                                   aggregate expression; output aliases
#                                   are not addressable there)
# ("isnull", expr, negated)         expr IS [NOT] NULL
# ("inlist", expr, values, negated) expr [NOT] IN (v, ...)
# ("between", expr, lo, hi)         expr BETWEEN lo AND hi
# ("and", conjuncts) / ("or", disjuncts) / ("not", expr)
# ("case", cond, then, other)       CASE WHEN cond THEN then ELSE other END
# ("insub", expr, select_ir, neg)   expr [NOT] IN (subquery)
# ("existsub", select_ir, neg)      [NOT] EXISTS (subquery)

Expr = tuple
Rename = "dict[str, dict[str, str]] | None"


def _sql_literal(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def render_expr(expr: Expr, names: "RenameContext") -> str:
    kind = expr[0]
    if kind == "col":
        _, alias, column = expr
        return f"{alias}.{names.column(alias, column)}"
    if kind == "lit":
        return _sql_literal(expr[1])
    if kind == "bin":
        _, op, left, right = expr
        return (f"({render_expr(left, names)} {op}"
                f" {render_expr(right, names)})")
    if kind == "func":
        args = ", ".join(render_expr(a, names) for a in expr[2:])
        return f"{expr[1]}({args})"
    if kind == "agg":
        _, function, argument = expr
        arg = "*" if argument is None else render_expr(argument, names)
        return f"{function}({arg})"
    if kind == "isnull":
        tail = "is not null" if expr[2] else "is null"
        return f"({render_expr(expr[1], names)} {tail})"
    if kind == "inlist":
        _, operand, values, negated = expr
        body = ", ".join(_sql_literal(v) for v in values)
        word = "not in" if negated else "in"
        return f"({render_expr(operand, names)} {word} ({body}))"
    if kind == "between":
        _, operand, lo, hi = expr
        return (f"({render_expr(operand, names)} between"
                f" {_sql_literal(lo)} and {_sql_literal(hi)})")
    if kind == "and" or kind == "or":
        joiner = f" {kind} "
        return "(" + joiner.join(render_expr(e, names)
                                 for e in expr[1]) + ")"
    if kind == "not":
        return f"(not {render_expr(expr[1], names)})"
    if kind == "case":
        _, cond, then, other = expr
        return (f"(case when {render_expr(cond, names)}"
                f" then {render_expr(then, names)}"
                f" else {render_expr(other, names)} end)")
    if kind == "insub":
        _, operand, sub, negated = expr
        word = "not in" if negated else "in"
        return (f"({render_expr(operand, names)} {word}"
                f" ({sub.render(names.extended(sub.alias_tables()))}))")
    if kind == "existsub":
        _, sub, negated = expr
        word = "not exists" if negated else "exists"
        return f"({word} ({sub.render(names.extended(sub.alias_tables()))}))"
    raise ValueError(f"unknown expression node {kind!r}")


def expr_aliases(expr: Expr) -> set[str]:
    """Every table alias an expression references (for shrink dependency
    tracking)."""
    kind = expr[0]
    out: set[str] = set()
    if kind == "col":
        out.add(expr[1])
    elif kind == "bin":
        out |= expr_aliases(expr[2]) | expr_aliases(expr[3])
    elif kind == "func":
        for arg in expr[2:]:
            out |= expr_aliases(arg)
    elif kind == "agg":
        if expr[2] is not None:
            out |= expr_aliases(expr[2])
    elif kind in ("isnull", "not"):
        out |= expr_aliases(expr[1])
    elif kind in ("inlist", "between"):
        out |= expr_aliases(expr[1])
    elif kind in ("and", "or"):
        for e in expr[1]:
            out |= expr_aliases(e)
    elif kind == "case":
        for e in expr[1:]:
            out |= expr_aliases(e)
    elif kind == "insub":
        out |= expr_aliases(expr[1])
        out |= expr[2].outer_aliases()
    elif kind == "existsub":
        out |= expr[1].outer_aliases()
    return out


class RenameContext:
    """Maps base column names to their rendered names.

    The identity context renders the scenario as generated; the rename
    oracle substitutes a per-table mapping.  ``alias_tables`` ties query
    aliases back to base tables so qualified references resolve."""

    def __init__(self, alias_tables: dict[str, str],
                 rename: dict[str, dict[str, str]] | None = None):
        self.alias_tables = alias_tables
        self.rename = rename or {}

    def column(self, alias: str, column: str) -> str:
        table = self.alias_tables.get(alias)
        if table is None:
            return column
        return self.rename.get(table, {}).get(column, column)

    def table_column(self, table: str, column: str) -> str:
        return self.rename.get(table, {}).get(column, column)

    def extended(self, alias_tables: dict[str, str]) -> "RenameContext":
        """A context that additionally resolves a subquery's own aliases
        (outer aliases stay visible for correlated references)."""
        return RenameContext({**self.alias_tables, **alias_tables},
                             self.rename)


# -- tables ------------------------------------------------------------------


@dataclass(frozen=True)
class TableIR:
    """A generated base table: name, typed columns, literal rows."""

    name: str
    columns: tuple[tuple[str, str], ...]  # (name, "int" | "double" | "text")
    rows: tuple[tuple, ...]

    def column_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)


# -- plain SELECT ------------------------------------------------------------


@dataclass(frozen=True)
class JoinIR:
    kind: str          # "join" | "left join" | "right join" | "full join"
                       # | "cross join"
    table: str
    alias: str
    left_alias: str    # equi-join partner (ignored for cross join)
    left_column: str
    right_column: str


@dataclass(frozen=True)
class ItemIR:
    expr: Expr
    alias: str


@dataclass(frozen=True)
class AggItemIR:
    function: str            # sum | min | max | count | avg
    argument: Expr | None    # None => count(*)
    alias: str


@dataclass(frozen=True)
class SelectIR:
    """One SELECT block.  When ``agg_items`` is non-empty the ``items``
    are the GROUP BY keys."""

    base_table: str
    base_alias: str
    joins: tuple[JoinIR, ...] = ()
    items: tuple[ItemIR, ...] = ()
    agg_items: tuple[AggItemIR, ...] = ()
    where: tuple[Expr, ...] = ()
    having: tuple[Expr, ...] = ()
    distinct: bool = False
    order_limit: int | None = None   # ORDER BY every output alias LIMIT n

    # -- scope ---------------------------------------------------------

    def alias_tables(self) -> dict[str, str]:
        out = {self.base_alias: self.base_table}
        for join in self.joins:
            out[join.alias] = join.table
        return out

    def outer_aliases(self) -> set[str]:
        """Aliases a correlated subquery would lean on (conservative:
        everything the subquery's expressions mention minus its own)."""
        own = set(self.alias_tables())
        used: set[str] = set()
        for item in self.items:
            used |= expr_aliases(item.expr)
        for conjunct in self.where:
            used |= expr_aliases(conjunct)
        return used - own

    def output_aliases(self) -> tuple[str, ...]:
        return tuple(i.alias for i in self.items) + \
            tuple(a.alias for a in self.agg_items)

    # -- rendering -----------------------------------------------------

    def render(self, names: RenameContext | None = None) -> str:
        names = names or RenameContext(self.alias_tables())
        parts = ["select"]
        if self.distinct:
            parts.append("distinct")
        selections = [f"{render_expr(i.expr, names)} as {i.alias}"
                      for i in self.items]
        for agg in self.agg_items:
            arg = "*" if agg.argument is None \
                else render_expr(agg.argument, names)
            selections.append(f"{agg.function}({arg}) as {agg.alias}")
        parts.append(", ".join(selections))
        parts.append(f"from {self.base_table} {self.base_alias}")
        for join in self.joins:
            clause = f"{join.kind} {join.table} {join.alias}"
            if join.kind != "cross join":
                left = names.column(join.left_alias, join.left_column)
                right = names.column(join.alias, join.right_column)
                clause += (f" on {join.left_alias}.{left}"
                           f" = {join.alias}.{right}")
            parts.append(clause)
        if self.where:
            parts.append("where " + " and ".join(
                render_expr(c, names) for c in self.where))
        if self.agg_items and self.items:
            parts.append("group by " + ", ".join(
                render_expr(i.expr, names) for i in self.items))
        if self.having:
            parts.append("having " + " and ".join(
                render_expr(c, names) for c in self.having))
        if self.order_limit is not None:
            keys = ", ".join(self.output_aliases())
            parts.append(f"order by {keys} limit {self.order_limit}")
        return " ".join(parts)

    # -- shrinking -----------------------------------------------------

    def variants(self) -> Iterator["SelectIR"]:
        """Structurally-smaller valid versions of this query, one change
        each (the shrinker keeps any variant that still fails)."""
        for index in range(len(self.joins) - 1, -1, -1):
            reduced = self._without_join(index)
            if reduced is not None:
                yield reduced
        for index in range(len(self.where)):
            yield replace(self, where=_drop(self.where, index))
        for index in range(len(self.having)):
            yield replace(self, having=_drop(self.having, index))
        if self.order_limit is not None:
            yield replace(self, order_limit=None)
        if self.distinct:
            yield replace(self, distinct=False)
        if len(self.agg_items) > 1:
            for index in range(len(self.agg_items)):
                yield replace(self, agg_items=_drop(self.agg_items, index))
        elif len(self.agg_items) == 1 and not self.having:
            # Turn the aggregate query into a plain projection of its keys.
            if self.items:
                yield replace(self, agg_items=())
        if len(self.items) > 1 or (self.items and self.agg_items):
            minimum = 0 if self.agg_items else 1
            if len(self.items) > minimum:
                for index in range(len(self.items)):
                    yield replace(self, items=_drop(self.items, index))

    def _without_join(self, index: int) -> "SelectIR | None":
        removed = self.joins[index]
        survivors = self.joins[:index] + self.joins[index + 1:]
        # Any later join anchored on the removed alias keeps it alive.
        if any(j.left_alias == removed.alias for j in survivors):
            return None
        gone = removed.alias
        items = tuple(i for i in self.items
                      if gone not in expr_aliases(i.expr))
        aggs = tuple(a for a in self.agg_items
                     if a.argument is None
                     or gone not in expr_aliases(a.argument))
        if not items and not aggs:
            return None
        where = tuple(c for c in self.where
                      if gone not in expr_aliases(c))
        return replace(self, joins=survivors, items=items, agg_items=aggs,
                       where=where)

    def clause_count(self) -> int:
        count = len(self.items) + len(self.agg_items) + len(self.joins)
        count += len(self.where) + len(self.having)
        count += 1  # the FROM clause
        if self.distinct:
            count += 1
        if self.agg_items and self.items:
            count += 1  # GROUP BY
        if self.order_limit is not None:
            count += 1
        return count


# -- with+ recursion ---------------------------------------------------------


@dataclass(frozen=True)
class WithIR:
    """A with+ program over the generated graph tables E(F, T, ew) and
    V(ID, vw).  Parameterised rather than free-form: the parameters span
    the recursion features the paper's Section 4 grammar adds (union
    kinds, COMPUTED BY, anti-join pruning, nonlinearity, MAXRECURSION)
    while the shape guarantees the loop terminates."""

    union_kind: str                 # "union all" | "union" | "union by update"
    seeds: tuple[int, ...] = (0,)   # initial-branch source nodes
    aggregate: str | None = None    # UBU branch fold: min | max | sum | None
    nonlinear: bool = False         # t a join t b (TC-style, union kinds)
    # t(F, T) seeded from E: UNION over t join E (TC), UBU as a keyless
    # k-truss filter (two-key t-t-t join, two-column group by)
    pair: bool = False
    having: int | None = None       # pair: count(*) >= having per (F, T)
    antijoin: bool = False          # not in (select ... from t) pruning
    computed_by: bool = False       # frontier COMPUTED BY feeder
    maxrecursion: int | None = None
    extra_where: tuple[Expr, ...] = ()   # conjuncts on the recursive branch
    body_aggregate: bool = False    # body folds the CTE to count/min/max
    # UBU: the initial branch covers all of V (SSSP's literal CASE), so
    # R's keys stay put from the first iteration — the key-plan reuse path
    full_seed: bool = False
    # UBU over edge weights that include 0.0, -0.0 and negatives (the
    # generator draws them), from seeds valued -0.0 (a full seed: every
    # vertex but the source): min/max meet 0.0 beside -0.0, where which
    # row holds the extreme decides the value
    signed: bool = False
    # linear UNION over t(ID, d), d INTEGER and the branch's t.d + E.ew
    # DOUBLE: the insert truncates it, the delta-binding type rule's case
    coerced: bool = False
    # UBU with a min/max aggregate: the branch folds its candidates
    # together with t itself ("R arm"), SSSP's and WCC's shape, which
    # delta_update_is_exact proves semi-naive; the candidate's operator,
    # "+" (t.val + ew), "*" (t.val * ew) or "-" (ew - t.val), else ""
    r_arm: str = ""
    mode: str = "with+"

    edge_table: str = "E"
    node_table: str = "V"

    def alias_tables(self) -> dict[str, str]:
        return {"E": self.edge_table, "V": self.node_table,
                "t": "__cte__", "a": "__cte__", "b": "__cte__",
                "frontier": "__cte__"}

    # -- rendering -----------------------------------------------------

    def render(self, names: RenameContext | None = None) -> str:
        names = names or RenameContext(self.alias_tables())
        f = names.table_column(self.edge_table, "F")
        t = names.table_column(self.edge_table, "T")
        ew = names.table_column(self.edge_table, "ew")
        e = self.edge_table
        where = list(self.extra_where)
        if self.pair:
            return self._render_pair(names, f, t, e, where)
        if self.union_kind == "union by update":
            return self._render_ubu(names, f, t, ew, e, where)
        if self.nonlinear:
            columns = "(F, T)"
            initial = f"(select {f} as F, {t} as T from {e})"
            recursive = f"(select a.F, b.T from t a join t b on a.T = b.F"
            frontier = ""
        else:
            source = "frontier" if self.computed_by else "t"
            if self.coerced:
                # t also carries d: INTEGER (E's T), and the branch adds
                # E's DOUBLE ew to it
                columns, kept = "(ID, d)", "ID, d"
                seeds = " union all ".join(
                    f"select {f} as ID, {t} as d from {e} where {f} = {s}"
                    for s in self.seeds)
                value = f", {source}.d + {e}.{ew} as d"
            else:
                columns, kept, value = "(ID)", "ID", ""
                seeds = " union all ".join(
                    f"select {s} as ID from {e} where {f} = {s}"
                    f" group by {f}" for s in self.seeds)
            initial = f"({seeds})"
            recursive = (f"(select {e}.{t} as ID{value} from {source}"
                         f" join {e} on {e}.{f} = {source}.ID")
            if self.antijoin:
                where.append(("__antijoin__",))
            frontier = f" computed by frontier as select {kept} from t" \
                if self.computed_by else ""
        recursive += self._render_where(where, names, f, t, e)
        recursive += frontier + ")"
        cap = f" maxrecursion {self.maxrecursion}" \
            if self.maxrecursion is not None else ""
        body = self._render_body()
        return (f"with t{columns} as ( {initial} {self.union_kind}"
                f" {recursive}{cap} ) {body}")

    def _render_ubu(self, names, f, t, ew, e, where) -> str:
        if self.full_seed:
            node = names.table_column(self.node_table, "ID")
            rest = "-0.0" if self.signed else "100.0"
            seeds = (f"select {node} as ID, case when {node} = "
                     f"{self.seeds[0]} then 0.0 else {rest} end as val"
                     f" from {self.node_table}")
        else:
            start = "-0.0" if self.signed else "0.0"
            seeds = " union all ".join(
                f"select {s} as ID, {start} as val from {e} where {f} = {s}"
                f" group by {f}" for s in self.seeds)
        clauses = self._render_where(list(where), names, f, t, e)
        if self.r_arm:
            value = (f"{e}.{ew} - t.val" if self.r_arm == "-"
                     else f"t.val {self.r_arm} {e}.{ew}")
            recursive = (f"(select X.ID, {self.aggregate}(X.val) as val"
                         f" from ((select {e}.{t} as ID, {value} as val"
                         f" from t join {e} on {e}.{f} = t.ID{clauses})"
                         " union all (select ID, val from t)) as X"
                         " group by X.ID)")
        elif self.aggregate is not None:
            recursive = (f"(select {e}.{t} as ID,"
                         f" {self.aggregate}(t.val + {e}.{ew}) as val"
                         f" from t join {e} on {e}.{f} = t.ID"
                         f"{clauses} group by {e}.{t})")
        else:
            recursive = (f"(select {e}.{t} as ID, t.val + {e}.{ew} as val"
                         f" from t join {e} on {e}.{f} = t.ID{clauses})")
        cap = f" maxrecursion {self.maxrecursion}" \
            if self.maxrecursion is not None else ""
        body = self._render_body()
        return (f"with t(ID, val) as ( ({seeds}) union by update ID"
                f" {recursive}{cap} ) {body}")

    def _render_pair(self, names, f, t, e, where) -> str:
        initial = f"(select {f} as F, {t} as T from {e})"
        if self.union_kind == "union by update":
            # Keyless: each step replaces t by its edges with enough
            # triangle support — t only shrinks, so the loop settles.
            recursive = (
                f"(select s.F, s.T from s where s.c >= {self.having}"
                " computed by s(F, T, c) as select t1.F, t1.T, count(*)"
                " from t as t1, t as t2, t as t3 where t2.F = t1.F"
                " and t3.F = t1.T and t2.T = t3.T group by t1.F, t1.T; )")
        else:
            recursive = (f"(select t.F, {e}.{t} as T from t join {e}"
                         f" on {e}.{f} = t.T"
                         f"{self._render_where(where, names, f, t, e)}")
            if self.having is not None:
                recursive += (f" group by t.F, {e}.{t}"
                              f" having count(*) >= {self.having}")
            recursive += ")"
        cap = f" maxrecursion {self.maxrecursion}" \
            if self.maxrecursion is not None else ""
        return (f"with t(F, T) as ( {initial} {self.union_kind}"
                f" {recursive}{cap} ) {self._render_body()}")

    def _render_where(self, where, names, f, t, e) -> str:
        rendered = []
        for conjunct in where:
            if conjunct == ("__antijoin__",):
                rendered.append(f"{e}.{t} not in (select ID from t)")
            else:
                rendered.append(render_expr(conjunct, names))
        if not rendered:
            return ""
        return " where " + " and ".join(rendered)

    def _render_body(self) -> str:
        if self.body_aggregate:
            if self.nonlinear or self.pair:
                return "select count(*) as n from t"
            if self.union_kind == "union by update":
                return ("select count(*) as n, min(val) as lo,"
                        " max(val) as hi from t")
            return "select count(*) as n, min(ID) as lo from t"
        if self.nonlinear or self.pair:
            return "select F, T from t"
        if self.union_kind == "union by update":
            return "select ID, val from t"
        if self.coerced:
            return "select ID, d from t"
        return "select ID from t"

    # -- shrinking -----------------------------------------------------

    def variants(self) -> Iterator["WithIR"]:
        if self.pair:
            yield replace(self, pair=False, having=None)
            if self.having is not None and self.union_kind == "union":
                yield replace(self, having=None)
        if self.computed_by:
            yield replace(self, computed_by=False)
        if self.antijoin:
            yield replace(self, antijoin=False)
        if self.nonlinear:
            yield replace(self, nonlinear=False)
        if self.body_aggregate:
            yield replace(self, body_aggregate=False)
        if self.full_seed:
            yield replace(self, full_seed=False)
        if self.signed:
            yield replace(self, signed=False)
        if self.coerced:
            yield replace(self, coerced=False)
        if self.r_arm:
            yield replace(self, r_arm="")
        for index in range(len(self.extra_where)):
            yield replace(self, extra_where=_drop(self.extra_where, index))
        if len(self.seeds) > 1:
            for index in range(len(self.seeds)):
                yield replace(self, seeds=_drop(self.seeds, index))
        if self.maxrecursion is not None and self.maxrecursion > 0:
            yield replace(self, maxrecursion=self.maxrecursion // 2)
        if self.aggregate is not None:
            yield replace(self, aggregate="min")

    def clause_count(self) -> int:
        count = 2 + len(self.seeds)  # CTE + body + initial branches
        count += len(self.extra_where)
        for flag in (self.nonlinear, self.pair, self.having is not None,
                     self.antijoin, self.computed_by, self.body_aggregate,
                     self.full_seed, self.signed, self.coerced,
                     bool(self.r_arm)):
            if flag:
                count += 1
        if self.maxrecursion is not None:
            count += 1
        if self.aggregate is not None:
            count += 1
        return count


# -- scenario ----------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A complete fuzz program: tables plus a query IR."""

    seed: int
    tables: tuple[TableIR, ...]
    query: "SelectIR | WithIR"

    def sql(self, rename: dict[str, dict[str, str]] | None = None) -> str:
        names = RenameContext(self.query.alias_tables(), rename)
        return self.query.render(names)

    @property
    def mode(self) -> str:
        return getattr(self.query, "mode", "with+")

    @property
    def recursive(self) -> bool:
        return isinstance(self.query, WithIR)

    def variants(self) -> Iterator["Scenario"]:
        """One-change-smaller scenarios: query clause removals first, then
        table row reductions (halves, then single rows)."""
        for query in self.query.variants():
            yield replace(self, query=query)
        for position, table in enumerate(self.tables):
            n = len(table.rows)
            if n == 0:
                continue
            chunks = []
            if n > 3:
                chunks.append(table.rows[:n // 2])
                chunks.append(table.rows[n // 2:])
            if n <= 12:
                for index in range(n):
                    chunks.append(table.rows[:index]
                                  + table.rows[index + 1:])
            for rows in chunks:
                tables = (self.tables[:position]
                          + (replace(table, rows=rows),)
                          + self.tables[position + 1:])
                yield replace(self, tables=tables)


def clause_count(scenario: Scenario) -> int:
    """The number of syntactic clauses in a scenario's query — the
    shrinker's size metric (table rows are tracked separately)."""
    return scenario.query.clause_count()


def _drop(items: tuple, index: int) -> tuple:
    return items[:index] + items[index + 1:]


ShrinkPredicate = Callable[[Scenario], bool]
