"""Tables: constraints, writes, MERGE/UPDATE-FROM, index maintenance."""

import pytest

from repro.relational.errors import CatalogError, ConstraintError, SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import SqlType


@pytest.fixture
def node_table() -> Table:
    schema = Schema.of(("ID", SqlType.INTEGER), ("vw", SqlType.DOUBLE),
                       primary_key=("ID",))
    table = Table("V", schema)
    table.insert_many([(1, 1.0), (2, 2.0), (3, 3.0)])
    return table


class TestInsert:
    def test_coercion_on_insert(self, node_table):
        node_table.insert((4, 4))  # int coerced to float
        assert node_table.rows[-1] == (4, 4.0)

    def test_primary_key_enforced(self, node_table):
        with pytest.raises(ConstraintError):
            node_table.insert((1, 9.0))

    def test_arity_checked(self, node_table):
        with pytest.raises(SchemaError):
            node_table.insert((1,))

    def test_snapshot_is_immutable_copy(self, node_table):
        snap = node_table.snapshot()
        node_table.insert((9, 9.0))
        assert len(snap) == 3

    def test_statistics_invalidated_by_writes(self, node_table):
        node_table.analyze()
        assert node_table.statistics.fresh
        node_table.insert((4, 4.0))
        assert not node_table.statistics.fresh


class TestDeleteTruncate:
    def test_delete_where(self, node_table):
        removed = node_table.delete_where(lambda r: r[0] == 2)
        assert removed == 1
        assert len(node_table) == 2

    def test_delete_where_rebuilds_key_set(self, node_table):
        node_table.delete_where(lambda r: r[0] == 2)
        node_table.insert((2, 20.0))  # should not conflict after delete
        assert len(node_table) == 3

    def test_truncate(self, node_table):
        node_table.truncate()
        assert len(node_table) == 0
        node_table.insert((1, 1.0))  # key reusable


class TestMerge:
    def test_update_from_ignores_unmatched(self, node_table):
        source = Relation.from_pairs(("ID", "vw"), [(2, 20.0), (9, 90.0)])
        updated = node_table.update_from(source, ("ID",))
        assert updated == 1
        assert 9 not in node_table.snapshot().to_dict()


class TestReplaceContents:
    def test_replace(self, node_table):
        node_table.replace_contents(
            Relation.from_pairs(("ID", "vw"), [(7, 70.0)]))
        assert node_table.snapshot().to_dict() == {7: 70.0}

    def test_replace_arity_checked(self, node_table):
        with pytest.raises(SchemaError):
            node_table.replace_contents(Relation.from_pairs(("x",), [(1,)]))


class TestIndexes:
    def test_create_and_lookup(self, node_table):
        index = node_table.create_index("ix", ["ID"], "hash")
        assert index.lookup((2,)) == [(2, 2.0)]

    def test_index_maintained_on_insert(self, node_table):
        index = node_table.create_index("ix", ["ID"], "btree")
        node_table.insert((0, 0.0))
        assert index.lookup((0,)) == [(0, 0.0)]

    def test_index_rebuilt_on_replace(self, node_table):
        index = node_table.create_index("ix", ["ID"], "btree")
        node_table.replace_contents(
            Relation.from_pairs(("ID", "vw"), [(42, 1.0)]))
        assert index.lookup((42,)) == [(42, 1.0)]
        assert index.lookup((1,)) == []

    def test_duplicate_index_name(self, node_table):
        node_table.create_index("ix", ["ID"])
        with pytest.raises(CatalogError):
            node_table.create_index("ix", ["vw"])

    def test_index_on_exact_columns(self, node_table):
        node_table.create_index("ix", ["ID"], "btree")
        assert node_table.index_on(["ID"]) is not None
        assert node_table.index_on(["vw"]) is None

    def test_drop_index(self, node_table):
        node_table.create_index("ix", ["ID"])
        node_table.drop_index("ix")
        with pytest.raises(CatalogError):
            node_table.drop_index("ix")
