"""The Engine facade: dispatch, configuration, statistics plumbing."""

import inspect

import pytest

from repro.graphsystems.graph import Graph
from repro.relational import Engine, FeatureNotSupportedError
from repro.relational.database import Database
from repro.relational.dialects import OracleDialect
from repro.relational.planner import POLICIES, CostBasedPolicy

from ..conftest import reference_engine


class TestConstruction:
    def test_dialect_by_name_or_instance(self):
        assert Engine("oracle").dialect.name == "oracle"
        assert Engine(OracleDialect()).dialect.name == "oracle"

    def test_unknown_dialect(self):
        with pytest.raises(ValueError):
            Engine("sqlite")

    def test_shared_database(self):
        database = Database()
        a = Engine("oracle", database=database)
        b = Engine("postgres", database=database)
        a.database.load_node_table("V", [(1, 0.0)])
        assert b.execute("select count(*) as c from V").rows == ((1,),)

    def test_bad_mode_rejected_at_execution(self):
        engine = Engine("oracle", mode="with?")
        engine.database.load_edge_table("E", [(1, 2)])
        with pytest.raises(ValueError):
            engine.execute("""
                with R(F) as ((select F from E) union all
                  (select R.F from R where R.F < 0)) select * from R""")

    def test_no_partitioned_execution_knob(self):
        """Partitioned parallel execution is gone: no ``parallel`` engine
        parameter, fuzz-matrix field or CLI flag survives it."""
        import argparse
        import dataclasses
        import inspect

        from repro.check.oracles import EngineConfig
        from repro.cli import build_parser

        assert "parallel" not in inspect.signature(Engine.__init__).parameters
        assert "parallel" not in {f.name for f in
                                  dataclasses.fields(EngineConfig)}
        with pytest.raises(TypeError):
            Engine("oracle", parallel=2)
        parsers = [build_parser()]
        for parser in parsers:
            for action in parser._actions:
                assert "--parallel" not in action.option_strings
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        assert len(parsers) > 10  # every subcommand was walked


class TestProfiles:
    """``Engine()`` is the array engine; ``REFERENCE_PROFILE`` is the
    modelled RDBMS the paper-figure benches and differential tests pin."""

    def test_default_engine_is_batch_cost_columnar(self):
        engine = Engine()
        assert (engine.reference, engine.storage) == (False, "columnar")
        assert type(engine.policy) is CostBasedPolicy
        engine.database.load_edge_table("E", [(1, 2)])
        assert engine.database.table("E").storage == "columnar"

    def test_reference_helper_is_tuple_off_rows(self):
        for dialect in ("oracle", "db2", "postgres"):
            engine = reference_engine(dialect)
            assert (engine.reference, engine.storage) == (True, "rows")
            assert type(engine.policy) is \
                POLICIES[engine.dialect.policy_name]

    def test_one_switch_chooses_the_profile(self):
        """The engine takes no executor, optimizer or storage knob: the
        ``reference`` switch picks one of the two profiles."""
        assert list(inspect.signature(Engine.__init__).parameters) == [
            "self", "dialect", "database", "mode", "telemetry", "reference"]

    @pytest.mark.parametrize("value", ["colunmar", "ROWS", " rows"])
    def test_bad_storage_environment_raises_at_construction(self, value):
        """A bad storage name raises when the catalog is built, not at
        its first ``CREATE``: only ``Database(storage=...)`` names one,
        no environment variable does."""
        message = f"unknown storage {value!r}; expected 'rows' or 'columnar'"
        with pytest.raises(ValueError) as raised:
            Database(storage=value)
        assert str(raised.value) == message

    def test_an_attached_database_keeps_its_tables_storage(self):
        database = Database(storage="rows")
        database.load_edge_table("E", [(1, 2)])
        engine = Engine("oracle", database=database)
        engine.database.load_edge_table("F", [(1, 2)])
        assert database.table("E").storage == "rows"
        assert database.table("F").storage == engine.storage == "columnar"
        assert engine.execute("select count(*) as n from E, F"
                              " where E.T = F.T").rows == ((1,),)


class TestConfiguration:
    def test_default_ubu_strategy_is_dialects(self):
        assert Engine("postgres").union_by_update_strategy == \
            "full_outer_join"

    def test_ubu_strategy_validated_against_dialect(self):
        engine = Engine("postgres")
        with pytest.raises(FeatureNotSupportedError):
            engine.union_by_update_strategy = "merge"
        engine.union_by_update_strategy = "update_from"
        assert engine.union_by_update_strategy == "update_from"

    def test_ubu_strategy_reset(self):
        engine = Engine("oracle")
        engine.union_by_update_strategy = "merge"
        engine.union_by_update_strategy = None
        assert engine.union_by_update_strategy == "full_outer_join"

    def test_temp_indexes_copied(self):
        engine = Engine("postgres")
        spec = {"P": ["ID"]}
        engine.set_temp_indexes(spec)
        spec["P"] = ["other"]
        assert engine.temp_indexes["P"] == ["ID"]


class TestDispatch:
    def test_plain_select_goes_through_query_runner(self):
        engine = Engine("oracle")
        engine.database.load_node_table("V", [(1, 5.0)])
        detail = engine.execute_detailed("select vw from V")
        assert detail.iterations == 0
        assert detail.relation.rows == ((5.0,),)

    def test_recursive_with_goes_through_executor(self):
        engine = Engine("oracle")
        engine.database.load_edge_table("E", [(1, 2), (2, 3)])
        detail = engine.execute_detailed("""
            with R(F, T) as (
              (select F, T from E)
              union
              (select R.F, E.T from R, E where R.T = E.F)
            ) select count(*) as c from R""")
        assert detail.iterations >= 1
        assert detail.relation.rows == ((3,),)

    def test_nonrecursive_with_stays_in_query_runner(self):
        engine = Engine("oracle")
        engine.database.load_node_table("V", [(1, 0.0), (2, 0.0)])
        detail = engine.execute_detailed(
            "with X as (select ID from V) select count(*) as c from X")
        assert detail.iterations == 0

    def test_temp_tables_cleaned_up_after_recursion(self):
        engine = Engine("oracle")
        engine.database.load_edge_table("E", [(1, 2)])
        # Note the anti-join: computed-by blocks read the *full* R, so a
        # union-all recursion must filter out already-derived rows to
        # converge (exactly the TopoSort pattern).
        engine.execute("""
            with R(F) as (
              (select F from E)
              union all
              (select A.F from A
               computed by A(F) as select R.F + 1 as F from R
                           where R.F < 3
                           and R.F + 1 not in (select F from R);)
            ) select * from R""")
        assert not engine.database.exists("R")
        assert not engine.database.exists("A")


TC_SQL = """
    with R(F, T) as (
      (select F, T from E)
      union
      (select R.F, E.T from R, E where R.T = E.F)
    ) select count(*) as c from R"""


class TestWithPlusFixedCosts:
    """A with+ statement pays no per-statement compile or ANALYZE."""

    def test_a_repeated_statement_compiles_no_row_coercer(self):
        from repro.core.algorithms import pagerank, tc
        from repro.core.algorithms.common import load_graph, prepare_transition
        from repro.datasets import preferential_attachment
        from repro.relational import types

        graph = preferential_attachment(40, 3.0, directed=True, seed=3)
        engine = Engine("oracle")
        load_graph(engine, graph)
        prepare_transition(engine)
        statements = (tc.sql(), pagerank.sql(graph.num_nodes))
        first = [engine.execute(sql).rows for sql in statements]
        misses = types._compile_row_coercer.cache_info().misses
        assert [engine.execute(sql).rows for sql in statements] == first
        assert types._compile_row_coercer.cache_info().misses == misses

    def test_iterations_is_not_analyzed(self, monkeypatch):
        from repro.relational.statistics import TableStatistics

        analyzed = []
        for name in ("refresh", "refresh_from_vectors"):
            def spy(self, *args, _original=getattr(TableStatistics, name)):
                analyzed.append(self)
                return _original(self, *args)
            monkeypatch.setattr(TableStatistics, name, spy)
        engine = Engine("oracle")
        engine.database.load_edge_table("E", [(1, 2), (2, 3), (3, 4)])
        engine.execute(TC_SQL)
        statistics = engine.database.table("__iterations__").statistics
        assert statistics.fresh is False
        assert not any(s is statistics for s in analyzed)

    def test_iterations_reads_the_same_on_every_profile(self):
        """Every column but ``delta_rows`` reads the same on both
        profiles; that one reads the work done — TC reads only the last
        round's new rows on ``Engine()`` and all of R on the reference."""
        read, delta_rows = [], []
        for engine in (Engine("oracle"), reference_engine()):
            engine.database.load_edge_table("E", [(1, 2), (2, 3), (3, 4),
                                                  (4, 1), (2, 5)])
            engine.execute(TC_SQL)
            read.append(engine.execute(
                "select iteration, total_rows, inserted, overwritten"
                " from __iterations__ order by iteration").rows)
            delta_rows.append([row[0] for row in engine.execute(
                "select delta_rows from __iterations__"
                " order by iteration").rows])
        assert read[0] == read[1]
        assert len(read[0]) > 1
        assert delta_rows == [[5, 5, 5, 5], [5, 10, 15, 20]]


class TestLoadGraph:
    def test_load_graph_creates_paper_relations(self):
        graph = Graph.from_edges([(1, 2, 0.5), (2, 3, 1.5)])
        graph.set_node_weight(1, 7.0)
        engine = Engine("oracle")
        engine.load_graph(graph)
        edges = engine.execute("select F, T, ew from E order by F")
        assert edges.rows == ((1, 2, 0.5), (2, 3, 1.5))
        nodes = engine.execute("select vw from V where ID = 1")
        assert nodes.rows == ((7.0,),)


class TestStatistics:
    def test_analyze_marks_fresh_and_collects(self):
        engine = Engine("oracle")
        table = engine.database.load_node_table(
            "V", [(1, 1.0), (2, 2.0), (2 + 1, None)])
        stats = table.statistics
        assert stats.fresh
        assert stats.row_count == 3
        id_stats = stats.columns["id"]
        assert id_stats.distinct_count == 3
        vw_stats = stats.columns["vw"]
        assert vw_stats.null_fraction == pytest.approx(1 / 3)
        assert vw_stats.min_value == 1.0 and vw_stats.max_value == 2.0

    def test_selectivity_estimate(self):
        engine = Engine("oracle")
        table = engine.database.load_node_table(
            "V", [(i, float(i % 2)) for i in range(10)])
        assert table.statistics.selectivity_of_equality("vw") == \
            pytest.approx(0.5)
        assert table.statistics.selectivity_of_equality("ghost") == 0.1
