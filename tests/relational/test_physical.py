"""Physical operators: joins, aggregation, windows, EXPLAIN output."""

import pytest

from repro.relational.expressions import BinaryOp, col, lit
from repro.relational.database import Database
from repro.relational.physical import (
    Distinct,
    ExceptOp,
    Filter,
    HashAntiJoin,
    HashFullOuterJoin,
    HashJoin,
    HashLeftOuterJoin,
    HashSemiJoin,
    HashAggregate,
    IndexOrderedScan,
    IntersectOp,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    NotInAntiJoin,
    Project,
    RelationScan,
    Requalify,
    Sort,
    SortAggregate,
    TableScan,
    UnionAllOp,
    UnionDistinctOp,
    WindowAggregate,
    WindowSpec,
    explain_plan,
)
from repro.relational.relation import AggregateSpec, Relation
from repro.relational.schema import Schema


def scan(cols, rows, alias=None):
    return RelationScan(Relation.from_pairs(cols, rows), alias)


@pytest.fixture
def people():
    return scan(("id", "dept"), [(1, "a"), (2, "a"), (3, "b"), (4, None)],
                "P")


@pytest.fixture
def depts():
    return scan(("name", "head"), [("a", 10), ("b", 20), ("c", 30)], "D")


class TestJoins:
    def test_hash_join(self, people, depts):
        join = HashJoin(people, depts, [col("P.dept")], [col("D.name")])
        out = join.execute()
        assert len(out) == 3  # NULL dept never matches

    def test_hash_join_build_left_same_result(self, people, depts):
        right = HashJoin(people, depts, [col("P.dept")],
                         [col("D.name")]).execute()
        left = HashJoin(people, depts, [col("P.dept")], [col("D.name")],
                        build_side="left").execute()
        assert right == left

    def test_merge_join_agrees_with_hash(self, people, depts):
        hashed = HashJoin(people, depts, [col("P.dept")],
                          [col("D.name")]).execute()
        merged = MergeJoin(people, depts, [col("P.dept")],
                           [col("D.name")]).execute()
        assert hashed == merged

    def test_merge_join_uses_presorted_index_feed(self):
        db = Database()
        table = db.create_table("T", Schema.of("k", "v"))
        table.insert_many([(3, 1.0), (1, 2.0), (2, 3.0)])
        table.create_index("ix", ["k"], "btree")
        left = IndexOrderedScan(table, "ix", "L")
        right = scan(("k2",), [(1,), (2,), (3,)], "R")
        join = MergeJoin(left, right, [col("L.k")], [col("R.k2")])
        assert "left presorted" in join.detail()
        assert len(join.execute()) == 3

    def test_presorted_check_lets_lookup_bugs_surface(self, monkeypatch):
        # Only an unresolvable key means "not presorted"; any other error
        # from the column lookup is a bug and fails the join.
        db = Database()
        table = db.create_table("T", Schema.of("k", "v"))
        table.insert_many([(1, 2.0)])
        table.create_index("ix", ["k"], "btree")
        left = IndexOrderedScan(table, "ix", "L")
        right = scan(("k2",), [(1,)], "R")
        join = MergeJoin(left, right, [col("L.k")], [col("R.k2")])

        def broken(self, name, qualifier=None):
            raise RuntimeError("lookup bug")

        monkeypatch.setattr(Schema, "index_of", broken)
        with pytest.raises(RuntimeError, match="lookup bug"):
            join.detail()

    def test_nested_loop_theta(self, people, depts):
        join = NestedLoopJoin(people, depts,
                              BinaryOp("<", col("P.id"), col("D.head")))
        assert len(join.execute()) == 12

    def test_left_outer(self, people, depts):
        join = HashLeftOuterJoin(people, depts, [col("P.dept")],
                                 [col("D.name")])
        out = join.execute()
        assert len(out) == 4
        assert (4, None, None, None) in out.rows

    def test_full_outer(self, people, depts):
        join = HashFullOuterJoin(people, depts, [col("P.dept")],
                                 [col("D.name")])
        out = join.execute()
        assert (None, None, "c", 30) in out.rows
        assert len(out) == 5

    def test_semi_join_schema_is_left_only(self, people, depts):
        join = HashSemiJoin(people, depts, [col("P.dept")], [col("D.name")])
        out = join.execute()
        assert out.schema.arity == 2
        assert len(out) == 3

    def test_anti_join_keeps_null_probes(self, people, depts):
        join = HashAntiJoin(people, depts, [col("P.dept")], [col("D.name")])
        out = join.execute()
        # NOT EXISTS semantics: the NULL-dept row survives
        assert {r[0] for r in out.rows} == {4}

    def test_not_in_anti_join_drops_null_probes(self, people, depts):
        join = NotInAntiJoin(people, depts, [col("P.dept")], [col("D.name")])
        assert len(join.execute()) == 0  # all match or are NULL

    def test_not_in_anti_join_null_in_inner_kills_all(self, people):
        inner = scan(("name",), [("zzz",), (None,)], "I")
        join = NotInAntiJoin(people, inner, [col("P.dept")], [col("I.name")])
        assert len(join.execute()) == 0


class TestAggregates:
    def test_hash_and_sort_aggregate_agree(self, people):
        specs = [AggregateSpec("count", None, "c"),
                 AggregateSpec("max", col("P.id"), "m")]
        hashed = HashAggregate(people, [col("P.dept")], specs, ["dept"])
        sorted_ = SortAggregate(people, [col("P.dept")], specs, ["dept"])
        assert hashed.execute() == sorted_.execute()

    def test_scalar_aggregate_empty_input(self):
        empty = scan(("x",), [])
        for cls in (HashAggregate, SortAggregate):
            out = cls(empty, [], [AggregateSpec("sum", col("x"), "s")],
                      []).execute()
            assert out.rows == ((None,),)

    def test_window_aggregate_keeps_all_rows(self, people):
        spec = WindowSpec("count", None, (col("P.dept"),), "cnt")
        out = WindowAggregate(people, [spec]).execute()
        assert len(out) == 4
        by_id = {r[0]: r[-1] for r in out.rows}
        assert by_id[1] == 2 and by_id[3] == 1 and by_id[4] == 1


class TestOtherOperators:
    def test_filter_drops_null_predicate(self, people):
        out = Filter(people, BinaryOp(">", col("P.id"), lit(2))).execute()
        assert len(out) == 2

    def test_project_expressions(self, people):
        out = Project(people, [(BinaryOp("*", col("P.id"), lit(2)),
                                "double_id")]).execute()
        assert out.schema.names == ("double_id",)

    def test_sort_desc_and_nulls_last(self, people):
        out = Sort(people, [col("P.dept")], [False]).execute()
        assert out.rows[-1][1] is None

    def test_distinct(self):
        out = Distinct(scan(("x",), [(1,), (1,), (2,)])).execute()
        assert len(out) == 2

    def test_limit(self, people):
        assert len(Limit(people, 2).execute()) == 2

    def test_set_operators(self):
        a = scan(("x",), [(1,), (2,), (2,)])
        b = scan(("x",), [(2,), (3,)])
        assert len(UnionAllOp(a, b).execute()) == 5
        assert len(UnionDistinctOp(a, b).execute()) == 3
        assert ExceptOp(a, b).execute().rows == ((1,),)
        assert IntersectOp(a, b).execute().rows == ((2,),)

    def test_requalify(self, people):
        out = Requalify(people, "Q")
        assert all(c.qualifier == "Q" for c in out.schema.columns)
        assert len(out.execute()) == 4


class TestExplain:
    def test_explain_tree_shape(self, people, depts):
        plan = Filter(HashJoin(people, depts, [col("P.dept")],
                               [col("D.name")]),
                      BinaryOp(">", col("P.id"), lit(1)))
        text = explain_plan(plan)
        lines = text.splitlines()
        assert lines[0].startswith("-> Filter")
        assert "Hash Join" in lines[1]
        assert lines[2].strip().startswith("-> Relation Scan")
