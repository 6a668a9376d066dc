"""Recursive execution semantics: union kinds, semi-naive vs with+,
computed-by, maxrecursion, and the SQL'99 restriction checking.

What a recursive branch reads R as is pinned per profile: the reference
profile (its dialect planner) binds the full R for a with+ ``UNION``, as
Algorithm 1 does and Exp-C measures; ``Engine()`` binds the last round's
new rows when ``delta_binding_is_exact`` proves it derives the same new
rows, and each of the proof's decline rules has a test here that the
choice is ``"full"`` and the result, iteration by iteration, is the
reference's.
"""

import pytest

from repro.relational import (
    REFERENCE_PROFILE,
    Engine,
    FeatureNotSupportedError,
    RecursionLimitError,
    StratificationError,
)
from repro.relational import recursive
from repro.relational.recursive import (
    cte_is_recursive,
    split_branches,
    statement_references,
    validate_withplus,
)
from repro.relational.sql.parser import parse_statement

from ..conftest import engine_over_row_tables


def _load_graph(engine: Engine) -> Engine:
    engine.database.load_edge_table("E", [(1, 2), (2, 3), (3, 4), (2, 4)],
                                    weighted=False)
    engine.database.load_node_table("V", [(i, 0.0) for i in range(1, 5)])
    return engine


def _reference() -> Engine:
    return _load_graph(Engine("postgres", **REFERENCE_PROFILE))


@pytest.fixture
def engine() -> Engine:
    return _load_graph(Engine("postgres"))


class TestReferenceDetection:
    def test_counts_from_clause(self):
        stmt = parse_statement("select * from R, R as R2, E")
        assert statement_references(stmt, "R") == 2

    def test_counts_subqueries(self):
        stmt = parse_statement(
            "select * from E where F in (select F from R)")
        assert statement_references(stmt, "r") == 1

    def test_recursive_cte_detection(self):
        stmt = parse_statement(
            "with R(x) as ((select 1 as x) union all (select x + 1 from R"
            " where x < 3)) select * from R")
        assert cte_is_recursive(stmt.ctes[0])
        initial, recursive = split_branches(stmt.ctes[0])
        assert len(initial) == 1 and len(recursive) == 1

    def test_computed_by_reference_counts(self):
        stmt = parse_statement("""
            with R(x) as (
              (select 1 as x)
              union all
              (select A.x from A computed by A as select x from R;)
            ) select * from R""")
        assert cte_is_recursive(stmt.ctes[0])


class TestUnionSemantics:
    def test_union_all_accumulates_until_empty_delta(self, engine):
        result = engine.execute_detailed("""
            with R(x) as (
              (select 1 as x)
              union all
              (select R.x + 1 from R where R.x < 4)
            ) select x from R order by x""")
        assert [r[0] for r in result.relation.rows] == [1, 2, 3, 4]

    def test_union_deduplicates_and_converges_on_cycles(self):
        engine = Engine("postgres")
        engine.database.load_edge_table("E", [(1, 2), (2, 1)],
                                        weighted=False)
        result = engine.execute("""
            with TC(F, T) as (
              (select F, T from E)
              union
              (select TC.F, E.T from TC, E where TC.T = E.F)
            ) select F, T from TC""")
        assert set(result.rows) == {(1, 2), (2, 1), (1, 1), (2, 2)}

    def test_union_by_update_reaches_fixpoint(self, engine):
        result = engine.execute_detailed("""
            with P(ID, W) as (
              (select ID, 16.0 from V)
              union by update ID
              (select P.ID, P.W / 2 from P where P.W > 1)
            ) select ID, W from P""")
        assert all(w == 1.0 for _, w in result.relation.rows)

    def test_union_by_update_keyless_replaces(self, engine):
        result = engine.execute("""
            with C(ID) as (
              (select ID from V)
              union by update
              (select C.ID from C where C.ID > 2)
            ) select ID from C order by ID""")
        assert [r[0] for r in result.rows] == [3, 4]

    def test_union_by_update_keeps_unmatched_rows(self, engine):
        result = engine.execute("""
            with P(ID, W) as (
              (select ID, 0.0 from V)
              union by update ID
              (select P.ID, 9.0 as W from P where P.ID = 1
               and P.W < 9.0)
            ) select ID, W from P order by ID""")
        assert result.to_dict() == {1: 9.0, 2: 0.0, 3: 0.0, 4: 0.0}


def _iterations(result) -> list[tuple]:
    """``per_iteration`` without its wall-clock fields."""
    return [(s.iteration, s.delta_rows, s.total_rows, s.inserted,
             s.overwritten, s.pruned) for s in result.per_iteration]


class TestSemiNaiveVsWithPlus:
    """mode='with' binds the recursive name to the previous delta (SQL'99
    semi-naive); mode='with+' binds the full relation (Algorithm 1) on
    the reference profile, and the delta on ``Engine()`` where that is
    provably the same evaluation."""

    LEVELS_QUERY = """
        with R(x, lvl) as (
          (select 1 as x, 0 as lvl)
          union all
          (select R.x, R.lvl + 1 from R where R.lvl < 2)
        ) select x, lvl from R"""

    TC_QUERY = """
        with TC(F, T) as (
          (select F, T from E)
          union
          (select TC.F, E.T from TC, E where TC.T = E.F)
        ) select F, T from TC"""

    def test_union_all_is_semi_naive_in_both_modes(self, engine):
        # UNION ALL branch statements always read the previous step's rows;
        # a full-relation binding would re-derive old levels forever.
        for mode in ("with", "with+"):
            result = engine.execute(self.LEVELS_QUERY, mode=mode)
            assert sorted(r[1] for r in result.rows) == [0, 1, 2]

    def test_union_full_binding_rederives_in_withplus(self):
        # Exp-C's distinction, on the paper's modelled RDBMS: with+ TC
        # joins the whole accumulated relation each round (delta includes
        # re-derivations, deduplicated on combine); plain-with TC is
        # semi-naive (delta shrinks to the frontier).  Same closure
        # either way.
        engine = _reference()
        plus = engine.execute_detailed(self.TC_QUERY, mode="with+")
        plain = engine.execute_detailed(self.TC_QUERY, mode="with")
        assert plus.binding == {"TC": "full"}
        assert set(plus.relation.rows) == set(plain.relation.rows)
        assert plus.per_iteration[-1].delta_rows > \
            plain.per_iteration[-1].delta_rows

    def test_union_delta_binding_on_the_default_engine(self, engine):
        # The mirror on Engine(): with+ TC is linear, so it reads only
        # the last round's new rows — plain with's evaluation, delta for
        # delta — and derives what the reference derives, round by round.
        plus = engine.execute_detailed(self.TC_QUERY, mode="with+")
        plain = engine.execute_detailed(self.TC_QUERY, mode="with")
        assert plus.binding == {"TC": "delta"}
        assert [s.delta_rows for s in plus.per_iteration] == \
            [s.delta_rows for s in plain.per_iteration]
        reference = _reference().execute_detailed(self.TC_QUERY)
        assert repr(plus.relation.rows) == repr(reference.relation.rows)
        assert [(s.inserted, s.total_rows) for s in plus.per_iteration] == \
            [(s.inserted, s.total_rows) for s in reference.per_iteration]

    def test_a_kept_statement_keeps_its_binding(self, engine, monkeypatch):
        # The proof runs once per kept statement plan, not per run.
        proofs = []

        def spy(*args, _original=recursive.delta_binding_is_exact):
            proofs.append(args)
            return _original(*args)

        monkeypatch.setattr(recursive, "delta_binding_is_exact", spy)
        first = engine.execute_detailed(self.TC_QUERY)
        again = engine.execute_detailed(self.TC_QUERY)
        assert again.plans_compiled == 0
        assert len(proofs) == 1
        assert again.binding == first.binding == {"TC": "delta"}
        assert _iterations(again) == _iterations(first)

    def test_analysis_report_shows_the_binding(self, engine):
        header = engine.explain_analyze(self.TC_QUERY).splitlines()[0]
        assert header.endswith(" binding=delta")
        header = _reference().explain_analyze(self.TC_QUERY).splitlines()[0]
        assert header.endswith(" binding=full")


class TestDeltaBindingDeclines:
    """Each rule under which a with+ ``UNION`` keeps reading the full R on
    ``Engine()``: the choice is ``"full"``, and rows and per-iteration
    counts are the reference profile's, ``repr`` for ``repr``."""

    @staticmethod
    def check_full(engine: Engine, sql: str) -> None:
        ours = engine.execute_detailed(sql)
        theirs = _reference().execute_detailed(sql)
        assert ours.binding == {"R": "full"}
        assert repr(ours.relation.rows) == repr(theirs.relation.rows)
        assert repr(_iterations(ours)) == repr(_iterations(theirs))
        assert ours.iterations > 1

    def test_r_twice(self, engine):
        self.check_full(engine, """
            with R(F, T) as (
              (select F, T from E)
              union
              (select a.F, b.T from R a, R b where a.T = b.F)
            ) select F, T from R""")

    def test_not_in_over_r(self, engine):
        self.check_full(engine, """
            with R(F, T) as (
              (select F, T from E where F = 1)
              union
              (select E.F, E.T from E where E.F not in (select T from R))
            ) select F, T from R""")

    def test_r_in_an_aggregate(self, engine):
        # An aggregate's output columns are DOUBLE, so R's are too: the
        # type rule passes and the aggregate rule alone decides.
        self.check_full(engine, """
            with R(F, T) as (
              (select F * 1.0 as F, T * 1.0 as T from E)
              union
              (select R.F, min(E.T) from R, E where R.T = E.F
               group by R.F)
            ) select F, T from R""")

    def test_limit(self, engine):
        self.check_full(engine, """
            with R(F, T) as (
              (select F, T from E where F = 1)
              union
              (select R.F, E.T from R, E where R.T = E.F
               order by R.F, E.T limit 2)
            ) select F, T from R""")

    def test_r_on_the_null_supplying_side(self, engine):
        self.check_full(engine, """
            with R(F, T) as (
              (select F, T from E where F = 1)
              union
              (select E.F, R.T from E left join R on E.T = R.F)
            ) select F, T from R""")

    def test_computed_by(self, engine):
        self.check_full(engine, """
            with R(F, T) as (
              (select F, T from E)
              union
              (select R.F, X.T from R, X where R.T = X.F
               computed by X as select F, T from R;)
            ) select F, T from R""")

    def test_a_coercing_output_column(self, engine):
        # R.T + 0.5 is DOUBLE, R's T INTEGER: the insert stores (2, 2.5)
        # as (2, 2), which the combine never matches, so full binding
        # derives it again each round and delta binding would not.
        self.check_full(engine, """
            with R(F, T) as (
              (select F, T from E where F = 1)
              union
              (select E.T, R.T + 0.5 from R, E where R.F = E.F)
              maxrecursion 3
            ) select F, T from R""")


class TestComputedBy:
    def test_chain_visibility(self, engine):
        result = engine.execute("""
            with R(x) as (
              (select 1 as x)
              union all
              (select B.x from B
               computed by
                 A(x) as select max(x) + 1 as x from R;
                 B(x) as select A.x from A where A.x < 4;
              )
            ) select x from R order by x""")
        assert [r[0] for r in result.rows] == [1, 2, 3]

    def test_forward_reference_rejected(self, engine):
        stmt = parse_statement("""
            with R(x) as (
              (select 1 as x)
              union all
              (select B.x from B
               computed by
                 B(x) as select A.x from A;
                 A(x) as select max(x) + 1 as x from R;
              )
            ) select x from R""")
        with pytest.raises(StratificationError):
            validate_withplus(stmt.ctes[0])

    def test_self_reference_rejected(self):
        stmt = parse_statement("""
            with R(x) as (
              (select 1 as x)
              union all
              (select B.x from B, R
               computed by B(x) as select B.x from B;)
            ) select x from R""")
        with pytest.raises(StratificationError):
            validate_withplus(stmt.ctes[0])

    def test_multiple_ubu_recursive_branches_rejected(self):
        stmt = parse_statement("""
            with R(x) as (
              (select 1 as x)
              union by update x
              (select R.x from R)
              union by update x
              (select R.x + 1 from R)
            ) select x from R""")
        with pytest.raises(StratificationError):
            validate_withplus(stmt.ctes[0])


class TestPlainCteBesideRecursion:
    SQL = """
    with S(F, T) as (select F, T from E where F < 3),
    R(F, T) as (
      (select F, T from S)
      union
      (select R.F, E.T from R, E where R.T = E.F)
    )
    select F, T from R
    """

    @pytest.mark.parametrize("profile", ["default", "reference"])
    def test_a_non_recursive_cte_feeds_the_recursive_one(self, profile,
                                                          monkeypatch):
        runs = []
        plain = recursive.RecursiveExecutor._run_plain_cte

        def spy(self, cte, stats):
            runs.append(cte.name)
            return plain(self, cte, stats)

        monkeypatch.setattr(recursive.RecursiveExecutor, "_run_plain_cte",
                            spy)
        engine = (_load_graph(Engine("postgres")) if profile == "default"
                  else _reference())
        rows = engine.execute(self.SQL).rows
        assert runs == ["S"]
        assert sorted(rows) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


class TestLoopingControl:
    def test_maxrecursion_caps_iterations(self, engine):
        result = engine.execute_detailed("""
            with R(x) as (
              (select 0 as x)
              union all
              (select R.x + 1 from R)
              maxrecursion 5
            ) select count(*) as c from R""")
        assert result.hit_maxrecursion
        assert result.iterations == 5

    def test_unbounded_divergence_raises(self, engine):
        import repro.relational.recursive as recursive_module

        original = recursive_module.DEFAULT_RECURSION_CAP
        recursive_module.DEFAULT_RECURSION_CAP = 25
        try:
            with pytest.raises(RecursionLimitError):
                engine.execute("""
                    with R(x) as (
                      (select 0 as x)
                      union all
                      (select R.x + 1 from R)
                    ) select count(*) as c from R""")
        finally:
            recursive_module.DEFAULT_RECURSION_CAP = original

    def test_per_iteration_stats_collected(self, engine):
        result = engine.execute_detailed("""
            with R(x) as (
              (select 1 as x)
              union all
              (select R.x + 1 from R where R.x < 3)
            ) select * from R""")
        assert len(result.per_iteration) == result.iterations
        assert result.per_iteration[0].total_rows >= 1


class TestSql99Restrictions:
    def run(self, dialect, sql):
        engine = Engine(dialect)
        engine.database.load_edge_table("E", [(1, 2), (2, 3)],
                                        weighted=False)
        return engine.execute(sql, mode="with")

    NONLINEAR = """
        with R(F, T) as (
          (select F, T from E)
          union all
          (select R1.F, R2.T from R as R1, R as R2 where R1.T = R2.F
           and R2.T < 0)
        ) select * from R"""

    AGGREGATE = """
        with R(F, T) as (
          (select F, T from E)
          union all
          (select R.F, max(E.T) from R, E where R.T = E.F and E.T < 0
           group by R.F)
        ) select * from R"""

    NEGATION = """
        with R(F, T) as (
          (select F, T from E)
          union all
          (select R.F, E.T from R, E where R.T = E.F
           and E.T not in (select F from E) and E.T < 0)
        ) select * from R"""

    DISTINCT = """
        with R(F, T) as (
          (select F, T from E)
          union all
          (select distinct R.F, E.T from R, E where R.T = E.F and E.T < 0)
        ) select * from R"""

    def test_nonlinear_rejected_everywhere(self):
        for dialect in ("oracle", "db2", "postgres"):
            with pytest.raises(FeatureNotSupportedError):
                self.run(dialect, self.NONLINEAR)

    def test_aggregates_rejected_everywhere(self):
        for dialect in ("oracle", "db2", "postgres"):
            with pytest.raises(FeatureNotSupportedError):
                self.run(dialect, self.AGGREGATE)

    def test_negation_rejected_everywhere(self):
        for dialect in ("oracle", "db2", "postgres"):
            with pytest.raises(FeatureNotSupportedError):
                self.run(dialect, self.NEGATION)

    def test_distinct_only_on_postgres(self):
        assert self.run("postgres", self.DISTINCT) is not None
        for dialect in ("oracle", "db2"):
            with pytest.raises(FeatureNotSupportedError):
                self.run(dialect, self.DISTINCT)

    def test_with_plus_constructs_rejected_in_plain_mode(self):
        query = """
            with P(ID) as (
              (select F as ID from E)
              union by update ID
              (select P.ID from P)
            ) select * from P"""
        with pytest.raises(FeatureNotSupportedError):
            self.run("postgres", query)

    def test_everything_allowed_in_withplus_mode(self):
        engine = Engine("oracle")
        engine.database.load_edge_table("E", [(1, 2), (2, 3)],
                                        weighted=False)
        result = engine.execute(self.NONLINEAR, mode="with+")
        assert len(result) >= 2


def _load_weighted(engine: Engine) -> Engine:
    """A 12-node chain with shortcuts: SSSP from 0 changes a node or two
    a round, so rounds 2.. read few changed rows."""
    edges = [(i, i + 1, 1.0 + (i % 3) / 2) for i in range(11)]
    edges += [(0, 5, 9.0), (3, 9, 7.5), (6, 2, 1.0), (10, 4, 0.5)]
    engine.database.load_edge_table("E", edges)
    engine.database.load_node_table("V", [(i, 0.0) for i in range(12)])
    return engine


#: SSSP's shape over the weighted chain, with {keys}, {columns}, {seed},
#: {arm}, {where}, {r_arm}, {outer}, {aggregate} and {tail} to vary.
UPDATE_SQL = """
    with R(ID, d{columns}) as (
      (select ID, case when ID = 0 then 0.0 else 1e18 end{seed} from V)
      union by update {keys}
      (select X.ID, {aggregate}(X.d){outer} from
         ((select E.T as ID, R.d + E.ew as d{arm} from {sources}
           where R.ID = E.F{where})
          union all
          ({r_arm})) as X
       {filter}group by X.ID{having}{tail})
      maxrecursion 30
    ) select ID, d{columns} from R"""


def _update_sql(**parts) -> str:
    defaults = dict(keys="ID", columns="", seed="", aggregate="min",
                    outer="", arm="", sources="R, E", where="",
                    r_arm="select ID, d from R", filter="", having="",
                    tail="")
    defaults.update(parts)
    return UPDATE_SQL.format(**defaults)


class TestDeltaUpdateDeclines:
    """Each rule under which a union-by-update CTE keeps running its
    branch plan every round on ``Engine()``: the choice is ``"full"``,
    and rows and per-iteration counts are the reference profile's,
    ``repr`` for ``repr`` — beside the shape the rule accepts, which
    reads the changed rows and writes what the reference writes."""

    @pytest.fixture
    def engine(self) -> Engine:
        return _load_weighted(Engine("postgres"))

    @staticmethod
    def reference(sql: str):
        return _load_weighted(
            Engine("postgres", **REFERENCE_PROFILE)).execute_detailed(sql)

    def check_full(self, engine: Engine, sql: str) -> None:
        ours = engine.execute_detailed(sql)
        theirs = self.reference(sql)
        assert ours.binding == {"R": "full"}
        assert repr(ours.relation.rows) == repr(theirs.relation.rows)
        assert repr(_iterations(ours)) == repr(_iterations(theirs))
        assert ours.iterations > 1

    def test_the_proven_shape_reads_the_changed_rows(self, engine):
        sql = _update_sql()
        ours = engine.execute_detailed(sql)
        theirs = self.reference(sql)
        assert ours.binding == {"R": "delta"}
        assert theirs.binding == {"R": "full"}
        assert "delta" in [s.binding for s in ours.per_iteration]
        assert repr(ours.relation.rows) == repr(theirs.relation.rows)
        assert [(s.iteration, s.total_rows, s.inserted, s.overwritten)
                for s in ours.per_iteration] == \
            [(s.iteration, s.total_rows, s.inserted, s.overwritten)
             for s in theirs.per_iteration]
        header = engine.explain_analyze(sql).splitlines()[0]
        assert header.endswith(" binding=delta")

    def test_the_key_in_second_place(self, engine):
        sql = """
            with R(d, ID) as (
              (select case when ID = 0 then 0.0 else 1e18 end, ID from V)
              union by update ID
              (select min(X.d), X.ID from
                 ((select R.d + E.ew as d, E.T as ID from R, E
                   where R.ID = E.F)
                  union all
                  (select d, ID from R)) as X
               group by X.ID)
              maxrecursion 30
            ) select d, ID from R"""
        ours = engine.execute_detailed(sql)
        theirs = self.reference(sql)
        assert "delta" in [s.binding for s in ours.per_iteration]
        assert repr(ours.relation.rows) == repr(theirs.relation.rows)
        assert [(s.inserted, s.overwritten) for s in ours.per_iteration] \
            == [(s.inserted, s.overwritten) for s in theirs.per_iteration]

    def test_two_update_keys(self, engine):
        self.check_full(engine, _update_sql(keys="ID, d"))

    def test_r_of_arity_three(self, engine):
        self.check_full(engine, _update_sql(
            columns=", c", seed=", 1", arm=", 1 as c", outer=", max(X.c)",
            r_arm="select ID, d, c from R"))

    def test_sum_instead_of_min_or_max(self, engine):
        self.check_full(engine, _update_sql(aggregate="sum"))

    def test_having(self, engine):
        self.check_full(engine, _update_sql(having=" having count(*) > 0"))

    def test_a_filter_outside(self, engine):
        self.check_full(engine, _update_sql(filter="where X.d >= 0 "))

    def test_computed_by(self, engine):
        self.check_full(engine, _update_sql(
            tail=" computed by Q as select ID from V;"))

    def test_a_subquery_reading_r(self, engine):
        self.check_full(engine, _update_sql(
            where=" and E.T in (select ID from R)"))

    def test_r_twice_in_the_join(self, engine):
        self.check_full(engine, _update_sql(
            sources="R, E, R as R2", where=" and R2.ID = E.T"))

    def test_an_outer_join(self, engine):
        self.check_full(engine, _update_sql(
            sources="R left join E on R.ID = E.F", where=" and E.ew > 0"))

    def test_a_filter_on_the_r_arm(self, engine):
        self.check_full(engine, _update_sql(
            r_arm="select ID, d from R where d < 1e18"))

    def test_row_storage(self):
        # The step probes a columnar edge table: over an attached catalog
        # of row tables every round runs the plan, and the statement
        # reports what its rounds read.
        self.check_full(engine_over_row_tables(_load_weighted, "postgres"),
                        _update_sql())

    def test_no_r_arm(self, engine):
        # BFS's shape: the candidates alone, grouped.
        self.check_full(engine, """
            with R(ID, d) as (
              (select ID, case when ID = 0 then 0.0 else 1e18 end from V)
              union by update ID
              (select E.T, min(R.d + E.ew) from R, E where R.ID = E.F
               group by E.T)
              maxrecursion 30
            ) select ID, d from R""")
