"""Seeded scenario generator.

Emits random-but-valid programs in two families:

* plain SELECTs over 1–3 generated tables — joins up to 4-way (inner,
  left, right, full, cross), arithmetic/CASE/function expressions,
  typed WHERE predicates (including IN/NOT IN/EXISTS/NOT EXISTS
  subqueries), GROUP BY + aggregates + HAVING, DISTINCT, deterministic
  ORDER BY + LIMIT — over NULL-heavy data;
* ``with+`` programs over a generated graph — UNION ALL / UNION /
  UNION BY UPDATE recursion (seeded from a node or two, or — keys
  stable from the first iteration — from every vertex), nonlinear
  branches, COMPUTED BY feeders,
  anti-join pruning, MAXRECURSION edges, a union-by-update over signed
  zero and negative edge weights, a min/max union-by-update that folds
  its candidates with R itself (SSSP's and WCC's "R arm"), a linear
  UNION whose value column R's
  INTEGER type coerces, and pair-shaped ``t(F, T)``
  recursions (TC with a two-column GROUP BY; k-truss's two-key
  self-join under a keyless update) for the packed-key kernels.  About
  one graph in four scatters its node ids 10**6 apart, so packed keys
  leave the dense ranges too.

About one plain SELECT in six is instead a *numeric* variant: NULL-free
int/double tables, up to four aggregates over zero to two plain key
columns, and comparison filters — the shapes the array aggregate and the
array comparison mask answer — over values at the edges of their
envelope (``-0.0``, ints at 2**53 beside doubles, ints near 2**62 whose
sum leaves int64, ties).

Two invariants keep the differential oracles sound:

* **determinism** — every program has exactly one correct result
  multiset.  LIMIT only appears under an ORDER BY over every output
  column; SUM/AVG arguments stay in exactly-representable numeric
  domains (integers and quarter-unit doubles), so accumulation order
  cannot perturb the fold; ``rand()`` is never emitted.
* **termination** — UNION ALL and value-growing UNION BY UPDATE
  recursions always carry a small MAXRECURSION; UNION recursion derives
  values from the finite node domain and converges on its own.
"""

from __future__ import annotations

import dataclasses
import random

from .ir import (
    AggItemIR,
    Expr,
    ItemIR,
    JoinIR,
    Scenario,
    SelectIR,
    TableIR,
    WithIR,
)

_TEXT_POOL = ("a", "b", "c", "d", "ab", "ba", "cc", "", "x")
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def generate_scenario(seed: int) -> Scenario:
    """The scenario for *seed* — pure function of its argument."""
    rng = random.Random(seed)
    if rng.random() < 0.6:
        return _generate_select_scenario(seed, rng)
    return _generate_with_scenario(seed, rng)


# -- data --------------------------------------------------------------------


def _value(rng: random.Random, sql_type: str, null_rate: float = 0.25):
    if rng.random() < null_rate:
        return None
    if sql_type == "int":
        return rng.randint(-5, 15)
    if sql_type == "double":
        # Quarter units are exactly representable; sums stay exact.
        return rng.randint(-20, 60) / 4.0
    return rng.choice(_TEXT_POOL)


def _generate_tables(rng: random.Random, count: int) -> tuple[TableIR, ...]:
    tables = []
    for index in range(count):
        name = f"T{index}"
        columns = [("k0", "int")]
        for c in range(rng.randint(1, 3)):
            columns.append((f"c{c}", rng.choice(("int", "double", "text"))))
        n_rows = rng.choice((0, 3, 8, 15, 30))
        rows = tuple(
            tuple(_value(rng, sql_type) for _, sql_type in columns)
            for _ in range(n_rows))
        tables.append(TableIR(name, tuple(columns), rows))
    return tuple(tables)


# -- expressions -------------------------------------------------------------


def _columns_of(tables: dict[str, TableIR], alias_tables: dict[str, str],
                want: str | None = None) -> list[tuple[str, str, str]]:
    """(alias, column, type) for every column in scope, optionally
    filtered by type class (``"num"`` or an exact type)."""
    out = []
    for alias, table_name in alias_tables.items():
        for column, sql_type in tables[table_name].columns:
            if want == "num" and sql_type not in ("int", "double"):
                continue
            if want not in (None, "num") and sql_type != want:
                continue
            out.append((alias, column, sql_type))
    return out


def _scalar_expr(rng: random.Random, scope, depth: int = 0) -> tuple[Expr, str]:
    """A typed scalar expression over *scope*; returns (expr, type)."""
    choice = rng.random()
    numeric = [c for c in scope if c[2] in ("int", "double")]
    if choice < 0.55 or depth >= 2 or not scope:
        alias, column, sql_type = rng.choice(scope)
        return ("col", alias, column), sql_type
    if choice < 0.75 and numeric:
        alias, column, sql_type = rng.choice(numeric)
        op = rng.choice(("+", "-", "*"))
        other: Expr
        if rng.random() < 0.5 and len(numeric) > 1:
            alias2, column2, type2 = rng.choice(numeric)
            other = ("col", alias2, column2)
            out_type = "double" if "double" in (sql_type, type2) else "int"
        else:
            other = ("lit", rng.randint(1, 4))
            out_type = sql_type
        return ("bin", op, ("col", alias, column), other), out_type
    if choice < 0.85 and numeric:
        alias, column, sql_type = rng.choice(numeric)
        name = rng.choice(("abs", "sign", "coalesce", "least", "greatest"))
        if name == "coalesce":
            return ("func", name, ("col", alias, column),
                    ("lit", rng.randint(-3, 3))), sql_type
        if name in ("least", "greatest") and len(numeric) > 1:
            alias2, column2, type2 = rng.choice(numeric)
            out = "double" if "double" in (sql_type, type2) else "int"
            return ("func", name, ("col", alias, column),
                    ("col", alias2, column2)), out
        if name in ("least", "greatest"):
            name = "abs"
        out_type = "int" if name == "sign" else sql_type
        return ("func", name, ("col", alias, column)), out_type
    texts = [c for c in scope if c[2] == "text"]
    if choice < 0.93 and texts:
        alias, column, _ = rng.choice(texts)
        return ("bin", "||", ("col", alias, column),
                ("lit", rng.choice(_TEXT_POOL))), "text"
    condition, _ = _predicate(rng, scope, depth + 1, allow_sub=False)
    then, out_type = _scalar_expr(rng, scope, depth + 1)
    if out_type in ("int", "double"):
        other: Expr = ("lit", rng.randint(-2, 2))
    else:
        other = ("lit", rng.choice(_TEXT_POOL))
    return ("case", condition, then, other), out_type


def _predicate(rng: random.Random, scope, depth: int = 0,
               allow_sub: bool = True,
               tables: dict[str, TableIR] | None = None) -> tuple[Expr, str]:
    """A boolean conjunct over *scope*; returns (expr, "bool")."""
    choice = rng.random()
    numeric = [c for c in scope if c[2] in ("int", "double")]
    texts = [c for c in scope if c[2] == "text"]
    if choice < 0.35 and numeric:
        alias, column, _ = rng.choice(numeric)
        op = rng.choice(_COMPARISONS)
        if rng.random() < 0.4 and len(numeric) > 1:
            alias2, column2, _ = rng.choice(numeric)
            right: Expr = ("col", alias2, column2)
        else:
            right = ("lit", rng.choice((rng.randint(-4, 12),
                                        rng.randint(-20, 40) / 4.0)))
        return ("bin", op, ("col", alias, column), right), "bool"
    if choice < 0.45 and texts:
        alias, column, _ = rng.choice(texts)
        op = rng.choice(("=", "<>"))
        return ("bin", op, ("col", alias, column),
                ("lit", rng.choice(_TEXT_POOL))), "bool"
    if choice < 0.58:
        alias, column, _ = rng.choice(scope)
        return ("isnull", ("col", alias, column),
                rng.random() < 0.5), "bool"
    if choice < 0.68 and numeric:
        alias, column, _ = rng.choice(numeric)
        values = tuple(rng.randint(-4, 12) for _ in range(rng.randint(1, 4)))
        if rng.random() < 0.3:
            values = values + (None,)
        return ("inlist", ("col", alias, column), values,
                rng.random() < 0.5), "bool"
    if choice < 0.76 and numeric:
        alias, column, _ = rng.choice(numeric)
        low = rng.randint(-4, 6)
        return ("between", ("col", alias, column), low,
                low + rng.randint(0, 8)), "bool"
    if choice < 0.84 and depth < 2:
        left, _ = _predicate(rng, scope, depth + 1, allow_sub=False)
        right, _ = _predicate(rng, scope, depth + 1, allow_sub=False)
        return (rng.choice(("and", "or")), (left, right)), "bool"
    if choice < 0.90 and depth < 2:
        inner, _ = _predicate(rng, scope, depth + 1, allow_sub=False)
        return ("not", inner), "bool"
    return ("isnull", ("col", *rng.choice(scope)[:2]),
            rng.random() < 0.5), "bool"


def _subquery_predicate(rng: random.Random, scope,
                        tables: dict[str, TableIR],
                        outer_aliases: set[str]) -> Expr | None:
    """An IN / NOT IN / EXISTS / NOT EXISTS conjunct against a fresh scan
    of one generated table."""
    numeric = [c for c in scope if c[2] == "int"]
    if not numeric:
        return None
    inner_table = rng.choice(sorted(tables))
    inner_alias = "s0"
    if inner_alias in outer_aliases:
        inner_alias = "s1"
    inner_numeric = [(inner_alias, column, sql_type)
                     for column, sql_type in tables[inner_table].columns
                     if sql_type == "int"]
    if not inner_numeric:
        return None
    _, inner_column, _ = rng.choice(inner_numeric)
    negated = rng.random() < 0.5
    if rng.random() < 0.5:
        sub = SelectIR(
            base_table=inner_table, base_alias=inner_alias,
            items=(ItemIR(("col", inner_alias, inner_column), "sv"),))
        alias, column, _ = rng.choice(numeric)
        return ("insub", ("col", alias, column), sub, negated)
    outer_alias, outer_column, _ = rng.choice(numeric)
    correlation = ("bin", "=", ("col", inner_alias, inner_column),
                   ("col", outer_alias, outer_column))
    sub = SelectIR(
        base_table=inner_table, base_alias=inner_alias,
        items=(ItemIR(("col", inner_alias, inner_column), "sv"),),
        where=(correlation,))
    return ("existsub", sub, negated)


# -- plain SELECT ------------------------------------------------------------


def _generate_select_scenario(seed: int, rng: random.Random) -> Scenario:
    numeric = random.Random(f"numeric {seed}")
    if numeric.random() < _NUMERIC_SHARE:
        return _generate_numeric_scenario(seed, numeric)
    tables = _generate_tables(rng, rng.randint(1, 3))
    by_name = {t.name: t for t in tables}
    base = rng.choice(tables)
    alias_tables = {"q0": base.name}
    joins = []
    join_budget = rng.choice((0, 0, 1, 1, 2, 3))
    for index in range(join_budget):
        target = rng.choice(tables)
        alias = f"q{index + 1}"
        kind = rng.choice(("join", "join", "left join", "right join",
                           "full join", "cross join"))
        left_alias = rng.choice(sorted(alias_tables))
        joins.append(JoinIR(kind, target.name, alias, left_alias,
                            "k0", "k0"))
        alias_tables[alias] = target.name
    scope = _columns_of(by_name, alias_tables)

    where = []
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        where.append(_predicate(rng, scope)[0])
    if rng.random() < 0.3:
        sub = _subquery_predicate(rng, scope, by_name, set(alias_tables))
        if sub is not None:
            where.append(sub)

    aggregate = rng.random() < 0.4
    if aggregate:
        keys = []
        for index in range(rng.randint(0, 2)):
            expr, _ = _scalar_expr(rng, scope)
            keys.append(ItemIR(expr, f"g{index}"))
        agg_items = []
        numeric = [c for c in scope if c[2] in ("int", "double")]
        for index in range(rng.randint(1, 2)):
            function = rng.choice(("sum", "min", "max", "count", "avg"))
            if function == "count" and rng.random() < 0.4:
                argument = None
            elif function in ("min", "max", "count"):
                alias, column, _ = rng.choice(scope)
                argument = ("col", alias, column)
            elif numeric:
                alias, column, _ = rng.choice(numeric)
                argument = ("col", alias, column)
            else:
                function, argument = "count", None
            agg_items.append(AggItemIR(function, argument, f"a{index}"))
        having = ()
        if rng.random() < 0.3 and agg_items:
            target = rng.choice(agg_items)
            # HAVING re-renders the aggregate expression: output aliases
            # are not addressable in the HAVING clause.
            agg_expr = ("agg", target.function, target.argument)
            if target.function == "count" or rng.random() < 0.5:
                having = (("bin", rng.choice((">", ">=", "<", "<>")),
                           agg_expr, ("lit", rng.randint(0, 3))),)
            else:
                having = (("isnull", agg_expr, rng.random() < 0.7),)
        query = SelectIR(
            base_table=base.name, base_alias="q0", joins=tuple(joins),
            items=tuple(keys), agg_items=tuple(agg_items),
            where=tuple(where), having=having)
    else:
        items = []
        for index in range(rng.randint(1, 4)):
            expr, _ = _scalar_expr(rng, scope)
            items.append(ItemIR(expr, f"o{index}"))
        query = SelectIR(
            base_table=base.name, base_alias="q0", joins=tuple(joins),
            items=tuple(items), where=tuple(where),
            distinct=rng.random() < 0.15)
    if rng.random() < 0.2:
        query = dataclasses.replace(query, order_limit=rng.randint(1, 10))
    return Scenario(seed, tables, query)


# -- numeric aggregate / filter variant ----------------------------------------

#: Share of plain SELECT scenarios drawn as the numeric variant.
_NUMERIC_SHARE = 1 / 6

#: INTEGER values by regime: small ties only (the array kernels answer),
#: or beside ints at 2**53 (no float64 image next to a double) or near
#: 2**62 (two of them overflow an int64 sum).
_NUMERIC_INTS = {
    "small": (-2, 0, 1, 1, 3, 5),
    "2**53": (-1, 2, 3, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1),
    "2**62": (1, 4, 2 ** 62, 2 ** 62 + 3, -(2 ** 62)),
}

#: DOUBLE values: quarter units with both zeros and ties, so every sum is
#: exact whatever the fold order.
_NUMERIC_DOUBLES = (-0.0, -0.0, 0.0, 0.25, 0.25, -1.5, 2.75, 4.0)

#: Comparison literals: in range, at ±2**53 and past it, at the int64
#: bounds, and doubles.
_NUMERIC_LITERALS = (0, 1, 3, 2 ** 53, 2 ** 53 + 1, -(2 ** 53) - 1,
                     2 ** 63 - 1, 0.25, -0.0, 2.5, 9007199254740992.0)


def _generate_numeric_scenario(seed: int, rng: random.Random) -> Scenario:
    """A NULL-free numeric table — keys ``k0``/``k1`` and values
    ``c0`` (int) / ``c1`` (double) — under aggregates and comparison
    filters, optionally self-joined on ``k0``.  SUM/AVG arguments are
    plain columns: int sums are exact Python ints, double sums exact
    quarter units, so the determinism invariant holds."""
    ints = _NUMERIC_INTS[rng.choice(sorted(_NUMERIC_INTS))]
    # Keys 2**40 apart have no dense slots: the array grouping declines.
    step = rng.choice((1, 1, 2 ** 40))
    rows = tuple((rng.randrange(3) * step, rng.randrange(4),
                  rng.choice(ints), rng.choice(_NUMERIC_DOUBLES))
                 for _ in range(rng.choice((0, 4, 9, 16))))
    table = TableIR("T0", (("k0", "int"), ("k1", "int"), ("c0", "int"),
                           ("c1", "double")), rows)
    joins: tuple[JoinIR, ...] = ()
    aliases = ["q0"]
    if rng.random() < 0.3:
        joins = (JoinIR("join", "T0", "q1", "q0", "k0", "k0"),)
        aliases.append("q1")

    def column(names=("k0", "k1", "c0", "c1")):
        return ("col", rng.choice(aliases), rng.choice(names))

    where = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        comparison = ("bin", rng.choice(_COMPARISONS), column(),
                      column() if rng.random() < 0.3
                      else ("lit", rng.choice(_NUMERIC_LITERALS)))
        if rng.random() < 0.3:
            comparison = ("bin", comparison[1], comparison[3],
                          comparison[2])
        where.append(comparison)
    if len(where) == 2 and rng.random() < 0.5:
        where = [("and", tuple(where))]
    if rng.random() < 0.2:
        items = tuple(ItemIR(column(), f"o{index}")
                      for index in range(rng.randint(1, 3)))
        query = SelectIR(base_table="T0", base_alias="q0", joins=joins,
                         items=items, where=tuple(where))
        return Scenario(seed, (table,), query)
    keys = tuple(ItemIR(column(("k0", "k1")), f"g{index}")
                 for index in range(rng.randint(0, 2)))
    agg_items = []
    for index in range(rng.randint(1, 4)):
        function = rng.choice(("count", "sum", "min", "max", "avg"))
        argument = (None if function == "count" and rng.random() < 0.5
                    else column(("c0", "c1")))
        agg_items.append(AggItemIR(function, argument, f"a{index}"))
    query = SelectIR(base_table="T0", base_alias="q0", joins=joins,
                     items=keys, agg_items=tuple(agg_items),
                     where=tuple(where))
    return Scenario(seed, (table,), query)


# -- with+ -------------------------------------------------------------------


#: Gap between the node ids of a scattered graph (:func:`_node_ids`).
_SCATTER = 10 ** 6

#: Edge weights of a signed union-by-update scenario: both zeros and
#: negatives, quarter units so sums stay exact.
_SIGNED_WEIGHTS = (0.0, -0.0, -0.0, -0.25, -1.0, -2.5, 0.5, 1.25)


def _node_ids(seed: int, n_nodes: int) -> list[int]:
    """Ascending node ids: ``0..n-1``, or — for about one graph in four —
    ids ``_SCATTER`` apart plus a small jitter, so a packed ``(F, T)``
    pair spans more slots than the UNION combine's bitmap covers and its
    sorted-keys path runs too.  Drawn from a generator of its own, so
    every other draw of the scenario stays as it was."""
    scatter = random.Random(f"node ids {seed}")
    if scatter.random() >= 0.25:
        return list(range(n_nodes))
    return [i * _SCATTER + scatter.randrange(1000) for i in range(n_nodes)]


def _generate_graph(seed: int,
                    rng: random.Random) -> tuple[TableIR, TableIR]:
    n_nodes = rng.randint(3, 9)
    density = rng.uniform(0.8, 2.2)
    edges = set()
    for _ in range(int(n_nodes * density) + 1):
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        edges.add((u, v))
    ids = _node_ids(seed, n_nodes)
    edge_rows = tuple((ids[u], ids[v], rng.randint(1, 12) / 4.0)
                      for u, v in sorted(edges))
    node_rows = tuple((ids[i], rng.randint(0, 8) / 2.0)
                      for i in range(n_nodes))
    edge = TableIR("E", (("F", "int"), ("T", "int"), ("ew", "double")),
                   edge_rows)
    node = TableIR("V", (("ID", "int"), ("vw", "double")), node_rows)
    return edge, node


def _generate_with_scenario(seed: int, rng: random.Random) -> Scenario:
    edge, node = _generate_graph(seed, rng)
    tables = (edge, node)
    n_nodes = len(node.rows)
    union_kind = rng.choice(("union all", "union", "union",
                             "union by update", "union by update"))
    seeds = tuple(sorted({node.rows[rng.randrange(n_nodes)][0]
                          for _ in range(rng.randint(1, 2))}))
    scope = [("E", "F", "int"), ("E", "T", "int"), ("E", "ew", "double")]
    extra_where = tuple(
        _predicate(rng, scope, allow_sub=False)[0]
        for _ in range(rng.choice((0, 0, 0, 1))))

    if union_kind == "union by update":
        aggregate = rng.choice(("min", "min", "max", "sum", None))
        # Union-by-update overwrites per key (last write wins), so even a
        # min() fold can cycle values around a loop forever — the cap is
        # mandatory for every UBU scenario.
        maxrecursion = rng.randint(1, 8)
        # The pair shape is k-truss: a keyless update by a support count
        # over a two-key self-join, grouped on two columns.
        pair = rng.random() < 0.3
        query = WithIR(
            union_kind=union_kind, seeds=seeds, aggregate=aggregate,
            pair=pair, having=rng.randint(1, 2) if pair else None,
            maxrecursion=maxrecursion,
            extra_where=() if pair else extra_where,
            body_aggregate=rng.random() < 0.3)
        # The key-stable variant seeds every vertex, as PR, WCC and SSSP
        # do: R's keys stay put, and the branch's key plans are reused
        # from one iteration to the next.  Drawn last, so the draws
        # before it give every other scenario what they gave before.
        if not pair and rng.random() < 0.4:
            query = dataclasses.replace(query, full_seed=True)
        # The signed variant redraws the edge weights from both zeros
        # and negatives and starts the seeds from -0.0, so min/max meet
        # 0.0 beside -0.0 and values fall below the seeds'.  Drawn after
        # everything else, so every other scenario stays as it was.
        if not pair and rng.random() < 0.5:
            query = dataclasses.replace(query, signed=True)
            edge = dataclasses.replace(edge, rows=tuple(
                (f, t, rng.choice(_SIGNED_WEIGHTS))
                for f, t, _ in edge.rows))
            tables = (edge, node)
        # The R-arm variant folds a min/max branch's candidates together
        # with t itself, SSSP's and WCC's shape, which Engine() evaluates
        # on the rows each round changed (delta_update_is_exact); its
        # candidate is t.val + ew, t.val * ew or ew - t.val.  Drawn last
        # of all, so every other scenario stays as it was.
        if not pair and aggregate in ("min", "max") and rng.random() < 0.5:
            query = dataclasses.replace(
                query, r_arm=rng.choice(("+", "+", "*", "-")))
    elif union_kind == "union all":
        query = WithIR(
            union_kind=union_kind, seeds=seeds,
            antijoin=rng.random() < 0.4,
            computed_by=rng.random() < 0.3,
            maxrecursion=rng.randint(0, 6),
            extra_where=extra_where,
            body_aggregate=rng.random() < 0.3)
    else:
        nonlinear = rng.random() < 0.4
        # The pair shape is TC over t(F, T), optionally keeping only
        # pairs reached along enough paths (a two-column group by).
        pair = not nonlinear and rng.random() < 0.4
        query = WithIR(
            union_kind=union_kind, seeds=seeds, nonlinear=nonlinear,
            pair=pair, having=rng.choice((None, 1, 2)) if pair else None,
            antijoin=not (nonlinear or pair) and rng.random() < 0.3,
            computed_by=not (nonlinear or pair) and rng.random() < 0.3,
            maxrecursion=rng.choice((None, None, rng.randint(0, 10))),
            # The nonlinear branch scopes aliases a/b, not E.
            extra_where=() if nonlinear else extra_where,
            body_aggregate=rng.random() < 0.3)
        # The coerced variant carries a value column the INTEGER column
        # truncates, so full binding derives again rows the combine
        # stored in another form: the profile axis (full binding on the
        # reference profile, delta on the array engine unless the type
        # rule declines) checks that rule.  Its values grow round by
        # round, hence the cap; it is drawn last, so every other scenario
        # stays as it was.
        if not (nonlinear or pair) and rng.random() < 0.5:
            query = dataclasses.replace(query, coerced=True,
                                        maxrecursion=rng.randint(1, 6))
    return Scenario(seed, tables, query)
