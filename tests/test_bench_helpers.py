"""The benchmark harness helpers and table rendering."""

from repro.bench.harness import (dag_twin, fresh_engine, load_dataset,
                                 time_call)
from repro.bench.reporting import format_cell, format_table


class TestReporting:
    def test_format_cell_variants(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"
        assert format_cell(0.1234567) == "0.1235"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(1234.6) == "1,235"
        assert format_cell("text") == "text"

    def test_format_table_alignment(self):
        table = format_table(["name", "value"],
                             [["a", 1.0], ["long-name", 22.5]], "Title")
        lines = table.splitlines()
        assert lines[0] == "Title"
        assert lines[1].startswith("name")
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded to equal width

    def test_format_table_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table and "b" in table


class TestHarness:
    def test_time_call_returns_result_and_duration(self):
        result, seconds = time_call(lambda: 41 + 1)
        assert result == 42
        assert seconds >= 0

    def test_load_dataset_scales(self):
        small = load_dataset("WV", scale=0.1)
        big = load_dataset("WV", scale=0.4)
        assert big.num_nodes > small.num_nodes

    def test_fresh_engine_keeps_the_dialect_plan_shapes(self):
        """The paper-figure benches run the reference profile, whatever
        ``Engine()`` says: row storage, PostgreSQL's merge join over stale
        statistics, DB2's sort aggregate."""
        plans = {}
        for dialect in ("postgres", "db2"):
            engine = fresh_engine(dialect)
            assert (engine.reference, engine.storage) == (True, "rows")
            engine.database.load_edge_table("E", [(1, 2), (2, 3), (1, 3)])
            engine.database.load_node_table(
                "V", [(1, 0.0), (2, 0.0), (3, 0.0)])
            engine.database.table("E").insert((3, 1, 1.0))  # stale stats
            plans[dialect] = (
                engine.explain("select E.F, V.vw from E, V"
                               " where E.T = V.ID"),
                engine.explain("select T, sum(ew) as s from E group by T"))
        assert "Merge Join" in plans["postgres"][0]
        assert "Sort Aggregate" in plans["db2"][1]
        assert fresh_engine("oracle", mode="with").mode == "with"

    def test_dag_twin_matches_size_and_is_acyclic(self):
        graph = load_dataset("WG", scale=0.2)
        dag = dag_twin(graph)
        assert dag.num_nodes == graph.num_nodes
        assert all(u < v for u, v in dag.edges())

