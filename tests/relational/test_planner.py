"""Planner policies: per-dialect plan shapes and the index-feed mechanism."""

import pytest

from repro.relational.planner import POLICIES

from ..conftest import reference_engine


@pytest.fixture
def loaded(request):
    def make(dialect):
        engine = reference_engine(dialect)
        engine.database.load_edge_table("E", [(1, 2), (2, 3), (1, 3)])
        engine.database.load_node_table("V", [(1, 0.0), (2, 0.0), (3, 0.0)])
        return engine
    return make


JOIN_SQL = "select E.F, V.vw from E, V where E.T = V.ID"
AGG_SQL = "select T, sum(ew) as s from E group by T"


class TestPlanShapes:
    def test_oracle_plans_hash_join_and_hash_agg(self, loaded):
        engine = loaded("oracle")
        assert "Hash Join" in engine.explain(JOIN_SQL)
        assert "Hash Aggregate" in engine.explain(AGG_SQL)

    def test_db2_plans_hash_join_and_sort_agg(self, loaded):
        engine = loaded("db2")
        assert "Hash Join" in engine.explain(JOIN_SQL)
        assert "Sort Aggregate" in engine.explain(AGG_SQL)

    def test_postgres_hash_join_when_statistics_fresh(self, loaded):
        # Both base tables are analyzed on load, so even the postgres
        # profile plans a hash join here.
        engine = loaded("postgres")
        assert "Hash Join" in engine.explain(JOIN_SQL)

    def test_postgres_merge_join_on_temp_tables(self, loaded):
        engine = loaded("postgres")
        temp = engine.database.create_temp_table(
            "P", engine.database.table("V").schema)
        temp.insert_many([(1, 0.0), (2, 0.0)])
        plan = engine.explain("select P.ID from P, E where P.ID = E.F")
        assert "Merge Join" in plan

    def test_postgres_merge_join_on_stale_statistics(self, loaded):
        engine = loaded("postgres")
        engine.database.table("E").insert((3, 1, 1.0))  # invalidates stats
        assert "Merge Join" in engine.explain(JOIN_SQL)

    def test_oracle_ignores_indexes_on_temp_tables(self, loaded):
        # Exp-A: "the optimizers do not choose a new query plan for
        # temporary tables, even when an index is constructed".
        engine = loaded("oracle")
        temp = engine.database.create_temp_table(
            "P", engine.database.table("V").schema)
        temp.insert_many([(1, 0.0)])
        temp.create_index("ix", ["ID"], "btree")
        plan = engine.explain("select P.ID from P, E where P.ID = E.F")
        assert "Hash Join" in plan
        assert "Index Scan" not in plan

    def test_postgres_uses_index_feed_for_merge_join(self, loaded):
        engine = loaded("postgres")
        temp = engine.database.create_temp_table(
            "P", engine.database.table("V").schema)
        temp.insert_many([(1, 0.0), (2, 0.0)])
        temp.create_index("ix", ["ID"], "btree")
        plan = engine.explain("select P.ID from P, E where P.ID = E.F")
        assert "Index Scan" in plan
        assert "presorted" in plan

    def test_index_feed_lookup_bug_surfaces(self, loaded, monkeypatch):
        # Only an unresolvable join column means "no index feed"; any
        # other error from the lookup is a bug and fails the plan.
        from repro.relational.table import Table

        engine = loaded("postgres")
        temp = engine.database.create_temp_table(
            "P", engine.database.table("V").schema)
        temp.insert_many([(1, 0.0), (2, 0.0)])
        temp.create_index("ix", ["ID"], "btree")

        def broken(self, columns):
            raise RuntimeError("index lookup bug")

        monkeypatch.setattr(Table, "index_on", broken)
        with pytest.raises(RuntimeError, match="index lookup bug"):
            engine.explain("select P.ID from P, E where P.ID = E.F")

    def test_oracle_build_side_selection(self, loaded):
        engine = loaded("oracle")
        # V (3 rows) smaller than E after E grows
        engine.database.table("E").insert_many(
            [(9, i, 1.0) for i in range(20)])
        plan = engine.explain("select V.ID from V, E where V.ID = E.F")
        assert "build left" in plan

    def test_db2_keeps_default_build_side(self, loaded):
        engine = loaded("db2")
        engine.database.table("E").insert_many(
            [(9, i, 1.0) for i in range(20)])
        plan = engine.explain("select V.ID from V, E where V.ID = E.F")
        assert "build left" not in plan


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(POLICIES) == {"hash-first", "hash-join-sort-agg",
                                 "merge-join", "cost-based"}

    def test_policy_names_match_keys(self):
        for key, cls in POLICIES.items():
            assert cls().name == key


class TestCrossPolicyAgreement:
    @pytest.mark.parametrize("sql", [
        JOIN_SQL,
        AGG_SQL,
        "select V.ID from V where ID not in (select T from E)",
        "select E.F, count(*) as c from E, V where E.T = V.ID group by E.F",
    ])
    def test_same_results_under_every_policy(self, loaded, sql):
        results = [loaded(d).execute(sql) for d in ("oracle", "db2",
                                                    "postgres")]
        assert results[0] == results[1] == results[2]
