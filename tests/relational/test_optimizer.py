"""Cost-based optimizer: statistics, pushdown, join reordering, ANALYZE,
adaptive replanning, and optimizer-on/off result identity."""

import math

import pytest

from repro.core.algorithms.registry import ALGORITHMS
from repro.datasets import preferential_attachment, random_dag
from repro.relational import Engine
from repro.relational.optimizer import CardinalityEstimator, choose_join_order
from repro.relational.planner import CostBasedPolicy

from ..conftest import reference_engine


@pytest.fixture
def loaded(request):
    def make():
        engine = Engine("oracle")
        engine.database.load_edge_table(
            "E", [(i, (i * 7 + 1) % 40, 1.0) for i in range(200)])
        engine.database.load_node_table(
            "V", [(i, float(i % 5)) for i in range(40)])
        return engine
    return make


JOIN_SQL = "select E.F, V.vw from E, V where E.T = V.ID"

SCAN_FILTER_AGGREGATE_SQL = (
    "select F, T, ew from E",
    "select F, T from E where ew < 0.35 and T > 16",
    "select T, count(*) as c, sum(ew) as s, min(F) as lo from E group by T",
)

FOUR_WAY_SQL = ("select count(*) as paths from E as A, E as B, E as C, V"
                " where A.T = B.F and B.T = C.F and C.T = V.ID"
                " and V.ID < 4")


class TestCardinalityEstimates:
    def test_explain_reports_estimates_on_every_operator(self, loaded):
        plan = loaded().explain(JOIN_SQL)
        for line in plan.splitlines():
            assert "est_rows=" in line, line

    def test_scan_estimate_matches_row_count(self, loaded):
        plan = loaded().explain("select F from E")
        assert "est_rows=200" in plan

    def test_equality_filter_uses_distinct_counts(self, loaded):
        # vw takes 5 distinct values over 40 rows -> ~8 rows estimated.
        plan = loaded().explain("select ID from V where vw = 1.0")
        filter_line = next(l for l in plan.splitlines() if "Filter" in l)
        est = int(filter_line.split("est_rows=")[1].rstrip(")"))
        assert 4 <= est <= 16

    def test_range_filter_interpolates_min_max(self, loaded):
        # vw is uniform over [0, 4]; vw < 1 covers ~25% of the range.
        plan = loaded().explain("select ID from V where vw < 1.0")
        filter_line = next(l for l in plan.splitlines() if "Filter" in l)
        est = int(filter_line.split("est_rows=")[1].rstrip(")"))
        assert est < 20

    def test_dialect_policies_also_report_estimates(self):
        engine = reference_engine("oracle")
        engine.database.load_edge_table("E", [(1, 2), (2, 3)])
        assert "est_rows=" in engine.explain("select F from E")

    def test_explain_analyze_reports_estimated_and_actual(self, loaded):
        report = loaded().explain_analyze(JOIN_SQL)
        for line in report.splitlines():
            assert "est_rows=" in line, line
            assert "actual rows=" in line, line


class TestCompositeKeyEstimates:
    """Per-key selectivities multiply, but a composite key has no more
    distinct values than its larger input has rows."""

    def test_selectivity_stops_at_one_over_the_larger_input(self, loaded):
        from repro.relational.expressions import col
        from repro.relational.physical import TableScan

        engine = loaded()
        estimator = engine.policy.estimator
        table = engine.database.table("E")
        left, right = TableScan(table, "A"), TableScan(table, "B")
        keys = ([col("A.F"), col("A.T")], [col("B.T"), col("B.F")])
        # 200 rows, 200 distinct F, 40 distinct T: each key pair is 1/200,
        # the product would be 1/40000
        assert estimator.equi_join_selectivity(left, right, *keys) == 1 / 200
        assert estimator.equi_join_selectivity(
            left, right, [col("A.T")], [col("B.T")]) == 1 / 40

    def test_ktruss_support_join_is_not_estimated_at_one_row(self):
        from repro.core.algorithms import ktruss, wcc
        from repro.core.algorithms.common import load_graph
        from repro.relational.engine import parse_statement
        from repro.relational.recursive import RecursiveExecutor

        graph = preferential_attachment(150, 6.0, directed=False, seed=2)
        engine = Engine("oracle")
        load_graph(engine, graph)
        wcc.prepare_symmetric_edges(engine)
        executor = RecursiveExecutor(
            engine.database, engine.dialect, engine.policy, mode=engine.mode,
            ubu_strategy=engine._ubu_strategy, analyze=True)
        executor.execute(parse_statement(ktruss.sql(3)))
        (support,) = [plan for title, plan, _ in executor.observed
                      if title == "computed by SUP"]
        stack, joins = [support], []
        while stack:
            node = stack.pop()
            stack.extend(node.children())
            if len(getattr(node, "left_keys", ())) == 2:
                joins.append(node)
        (join,) = joins  # E2.T = E3.T and E3.F = E1.T
        inputs = [child.estimated_rows for child in join.children()]
        assert join.estimated_rows >= min(inputs) > 1


class TestPushdownAndReordering:
    def test_single_table_predicate_pushed_below_join(self, loaded):
        plan = loaded().explain(
            "select E.F from E, V where E.T = V.ID and V.vw = 1.0")
        lines = plan.splitlines()
        join_depth = next(i for i, l in enumerate(lines) if "Join" in l)
        filter_depth = next(i for i, l in enumerate(lines) if "Filter" in l)
        assert filter_depth > join_depth  # filter is inside the join subtree

    def test_unreferenced_columns_pruned(self, loaded):
        plan = loaded().explain(JOIN_SQL)
        assert "Column Prune" in plan

    def test_star_select_keeps_syntactic_plan_and_column_order(self, loaded):
        engine = loaded()
        rows = engine.execute(
            "select * from E, V where E.T = V.ID and V.ID = 1").rows
        names = [c.name for c in engine.execute(
            "select * from E, V where E.T = V.ID").schema.columns]
        assert names == ["F", "T", "ew", "ID", "vw"]
        assert all(len(row) == 5 for row in rows)

    def test_small_filtered_relation_joined_first(self):
        # Three-way chain A-B-C where C shrinks to ~1 row under its
        # filter: the reorderer must not start from the big end.
        engine = Engine("oracle")
        engine.database.load_edge_table(
            "A", [(i, i % 50, 1.0) for i in range(500)])
        engine.database.load_edge_table(
            "B", [(i % 50, i // 50, 1.0) for i in range(300)])
        engine.database.load_node_table(
            "C", [(i, float(i)) for i in range(20)])
        plan = engine.explain(
            "select A.F from A, B, C"
            " where A.T = B.F and B.T = C.ID and C.vw = 3.0")
        lines = plan.splitlines()
        # The deepest (first-joined) inputs must include filtered C; the
        # 500-row A joins last, so it sits directly under the root join.
        root_join = next(l for l in lines if "Join" in l)
        assert "est_rows=" in root_join
        c_scan = next(i for i, l in enumerate(lines) if "[C]" in l)
        a_scan = next(i for i, l in enumerate(lines) if "[A]" in l)
        # A joins last: its scan renders after C's and sits shallower.
        assert a_scan > c_scan
        assert lines[a_scan].index("->") < lines[c_scan].index("->")

    def test_a_join_beyond_the_dp_limit_is_ordered_greedily(self,
                                                            monkeypatch):
        """One relation more than DP_RELATION_LIMIT in a chain: the greedy
        heuristic orders it, and the result is the reference profile's."""
        from repro.relational import optimizer

        orders = []
        greedy = optimizer._greedy_order

        def spy(n, *args):
            orders.append(greedy(n, *args))
            return orders[-1]

        monkeypatch.setattr(optimizer, "_greedy_order", spy)
        n = optimizer.DP_RELATION_LIMIT + 1
        sql = ("select R0.F, R{}.T from ".format(n - 1)
               + ", ".join(f"E as R{i}" for i in range(n)) + " where "
               + " and ".join(f"R{i}.T = R{i + 1}.F" for i in range(n - 1)))
        edges = [(i, (i * 7 + 1) % 40, 1.0) for i in range(60)]
        engine, baseline = Engine("oracle"), reference_engine("oracle")
        for each in (engine, baseline):
            each.database.load_edge_table("E", edges)
        rows = engine.execute(sql).rows
        assert [sorted(order) for order in orders] == [list(range(n))]
        assert rows and sorted(rows) == sorted(baseline.execute(sql).rows)

    def test_reordered_results_match_syntactic_order(self):
        engine_off = reference_engine("oracle")
        engine_on = Engine("oracle")
        for engine in (engine_off, engine_on):
            engine.database.load_edge_table(
                "A", [(i, i % 50, 1.0) for i in range(500)])
            engine.database.load_edge_table(
                "B", [(i % 50, i // 50, 1.0) for i in range(300)])
            engine.database.load_node_table(
                "C", [(i, float(i)) for i in range(20)])
        sql = ("select A.F, C.vw from A, B, C"
               " where A.T = B.F and B.T = C.ID and C.vw = 3.0")
        assert sorted(engine_off.execute(sql).rows) == \
            sorted(engine_on.execute(sql).rows)

    def test_dp_order_prefers_selective_edges(self):
        # Leaves: 0 (1000 rows), 1 (10 rows), 2 (100 rows); edges 0-1 and
        # 1-2 both selective.  The order must start from the small leaf.
        class Edge:
            def __init__(self, a, b, sel):
                self.left_index, self.right_index = a, b
                self.selectivity = sel

            def touches(self, i):
                return i in (self.left_index, self.right_index)

            def other(self, i):
                return (self.right_index if i == self.left_index
                        else self.left_index)

        order = choose_join_order(
            [1000.0, 10.0, 100.0],
            [Edge(0, 1, 0.0001), Edge(1, 2, 0.01)])
        # The highly selective 0-1 edge (1 row out) beats joining 1-2
        # first (10 rows out); leaf 2 joins last.  Never a cross start.
        assert set(order[:2]) == {0, 1}
        assert order[2] == 2


class TestOperatorSelection:
    def test_build_side_on_smaller_input(self, loaded):
        # V (40 rows) much smaller than E (200): build from V's side.
        lines = loaded().explain(JOIN_SQL).splitlines()
        join_at = next(i for i, l in enumerate(lines) if "Hash Join" in l)
        build_at = max(i for i, l in enumerate(lines)
                       if l.index("->") == lines[join_at].index("->") + 2)
        if "build left" in lines[join_at]:
            build_at = join_at + 1
        assert "[V]" in lines[build_at]

    def test_merge_join_when_both_sides_presorted(self):
        engine = Engine("oracle")
        engine.database.load_edge_table(
            "R", [(i, i + 1, 1.0) for i in range(50)])
        engine.database.load_edge_table(
            "S", [(i, i + 2, 1.0) for i in range(40)])
        engine.database.table("R").create_index("ix_r", ["T"], "btree")
        engine.database.table("S").create_index("ix_s", ["F"], "btree")
        plan = engine.explain("select R.F from R, S where R.T = S.F")
        assert "Merge Join" in plan
        assert "Index Ordered Scan" in plan or "index" in plan.lower()

    def test_hash_join_when_sizes_skewed(self):
        engine = Engine("oracle")
        engine.database.load_edge_table(
            "R", [(i, i + 1, 1.0) for i in range(500)])
        engine.database.load_edge_table("S", [(1, 2, 1.0), (2, 3, 1.0)])
        engine.database.table("R").create_index("ix_r", ["T"], "btree")
        engine.database.table("S").create_index("ix_s", ["F"], "btree")
        plan = engine.explain("select R.F from R, S where R.T = S.F")
        assert "Merge Join" not in plan

    def test_plans_agree_with_the_reference_profile(self):
        # 3000 rows.  Quarter weights keep every sum exact whatever
        # order it adds in.
        edges = [(i, (i * 7 + 1) % 40, (i % 4) / 4) for i in range(3000)]
        nodes = [(i, float(i % 5)) for i in range(40)]
        engine = Engine("oracle")
        baseline = reference_engine("oracle")
        for each in (engine, baseline):
            each.database.load_edge_table("E", edges)
            each.database.load_node_table("V", nodes)
        assert "Hash Join" in engine.explain(JOIN_SQL)
        for sql in (JOIN_SQL, *SCAN_FILTER_AGGREGATE_SQL, FOUR_WAY_SQL):
            assert sorted(engine.execute(sql).rows) \
                == sorted(baseline.execute(sql).rows), sql


class TestAnalyzeStatement:
    def test_analyze_table_refreshes_statistics(self, loaded):
        engine = loaded()
        table = engine.database.table("E")
        table.insert((999, 0, 1.0))  # invalidates
        assert not table.statistics.fresh
        result = engine.execute("analyze E")
        assert table.statistics.fresh
        assert result.rows == (("E", 201),)

    def test_analyze_without_name_refreshes_all(self, loaded):
        engine = loaded()
        engine.database.table("E").insert((999, 0, 1.0))
        engine.database.table("V").insert((999, 0.0))
        result = engine.execute("analyze")
        assert engine.database.table("E").statistics.fresh
        assert engine.database.table("V").statistics.fresh
        assert len(result.rows) >= 2

    def test_analyze_unknown_table_raises(self, loaded):
        with pytest.raises(Exception):
            loaded().execute("analyze nosuch")

    def test_cost_policy_lazily_refreshes_stale_statistics(self, loaded):
        engine = loaded()
        table = engine.database.table("E")
        table.insert((999, 0, 1.0))
        assert not table.statistics.fresh
        engine.explain(JOIN_SQL)  # estimation auto-analyzes
        assert table.statistics.fresh

    def test_dialect_policies_never_auto_refresh(self):
        engine = reference_engine("postgres")
        engine.database.load_edge_table("E", [(1, 2), (2, 3)])
        engine.database.load_node_table("V", [(1, 0.0), (2, 0.0)])
        engine.database.table("E").insert((3, 1, 1.0))
        engine.explain(JOIN_SQL)
        # The postgres profile's merge-join-on-stale-stats behaviour
        # depends on statistics staying stale.
        assert not engine.database.table("E").statistics.fresh


class TestAdaptiveReplanning:
    def test_union_all_shrinking_delta_triggers_replan(self, monkeypatch):
        monkeypatch.setattr(CostBasedPolicy, "REPLAN_FACTOR", 2.0)
        engine = Engine("oracle")
        # A single chain: the semi-naive delta starts at 30 rows and
        # shrinks by one per iteration as walk heads fall off the end,
        # so the planned cardinality drifts past the 2x factor.
        edges = [(i, i + 1, 1.0) for i in range(30)]
        engine.database.load_edge_table("E", edges)
        detail = engine.execute_detailed(
            "with R(ID) as ("
            " select F as ID from E"
            " union all"
            " select E.T as ID from R, E where R.ID = E.F"
            " maxrecursion 40)"
            " select count(*) as n from R")
        assert detail.replans >= 1
        assert detail.relation.rows[0][0] > 0

    def test_replans_counted_and_results_unchanged(self, monkeypatch):
        monkeypatch.setattr(CostBasedPolicy, "REPLAN_FACTOR", 1.5)
        results = {}
        for opt, reference in (("off", True), ("cost", False)):
            engine = Engine("oracle", reference=reference)
            engine.database.load_edge_table(
                "E", [(i, i + 1, 1.0) for i in range(40)]
                     + [(0, i, 2.0) for i in range(2, 20)])
            detail = engine.execute_detailed(
                "with R(ID, d) as ("
                " select 0 as ID, 0.0 as d"
                " union all"
                " select E.T as ID, R.d + E.ew as d"
                " from R, E where R.ID = E.F"
                " maxrecursion 60)"
                " select ID, min(d) as dist from R group by ID")
            results[opt] = sorted(detail.relation.rows)
            if opt == "cost":
                # The first iteration plans against a 1-row delta; the
                # fan-out to ~19 rows must trip the 1.5x drift check.
                assert detail.replans >= 1
        assert results["off"] == results["cost"]

    def test_no_replan_on_stable_cardinality(self):
        assert CostBasedPolicy.REPLAN_FACTOR == 8.0
        engine = Engine("oracle")
        graph_edges = [(i, (i + 1) % 10, 1.0) for i in range(10)]
        engine.database.load_edge_table("E", graph_edges)
        detail = engine.execute_detailed(
            "with R(ID, v) as ("
            " select F as ID, 1.0 as v from E"
            " union by update ID"
            " select E.T as ID, min(R.v + E.ew) as v"
            " from R, E where R.ID = E.F group by E.T"
            " maxrecursion 30)"
            " select count(*) as n from R")
        # union-by-update keeps R at a constant cardinality: never replan.
        assert detail.replans == 0


def _comparable(left, right) -> bool:
    if set(left) != set(right):
        return False
    for key, a in left.items():
        b = right[key]
        if a == b:
            continue
        if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
            if all(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
                   for x, y in zip(a, b)):
                continue
        if isinstance(a, float) and isinstance(b, float) and \
                math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
            continue
        return False
    return True


class TestResultIdentity:
    """``Engine()`` must agree with the reference profile over the whole
    registry (exact, modulo float-summation order inside aggregates)."""

    @pytest.mark.parametrize(
        "key", sorted(k for k, info in ALGORITHMS.items() if info.has_sql))
    def test_algorithm_matches_without_optimizer(self, key):
        info = ALGORITHMS[key]
        graph = (random_dag(60, 2, seed=3) if info.needs_dag
                 else preferential_attachment(120, 3, seed=3))
        kwargs = dict(info.bench_kwargs or {})
        off = info.run_sql(reference_engine("oracle"), graph, **kwargs)
        on = info.run_sql(Engine("oracle"), graph, **kwargs)
        assert _comparable(off.values, on.values)
        assert off.iterations == on.iterations
