"""Catalog behaviour: namespaces, temp shadowing, rename, loaders."""

import pytest

from repro.relational.database import Database
from repro.relational.errors import CatalogError, ConstraintError
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@pytest.fixture
def db() -> Database:
    return Database()


class TestCatalog:
    def test_create_and_lookup_case_insensitive(self, db):
        db.create_table("Users", Schema.of("id"))
        assert db.table("users").name == "Users"

    def test_duplicate_create_rejected(self, db):
        db.create_table("t", Schema.of("a"))
        with pytest.raises(CatalogError):
            db.create_table("T", Schema.of("a"))

    def test_missing_table(self, db):
        with pytest.raises(CatalogError):
            db.table("ghost")

    def test_drop(self, db):
        db.create_table("t", Schema.of("a"))
        db.drop_table("t")
        assert not db.exists("t")

    def test_drop_missing_with_if_exists(self, db):
        db.drop_table("ghost", if_exists=True)
        with pytest.raises(CatalogError):
            db.drop_table("ghost")


class TestTempTables:
    def test_temp_shadows_base(self, db):
        base = db.create_table("t", Schema.of("a"))
        base.insert((1,))
        temp = db.create_temp_table("t", Schema.of("a"))
        temp.insert((2,))
        assert db.relation("t").rows == ((2.0,),)

    def test_replace_flag(self, db):
        db.create_temp_table("t", Schema.of("a"))
        with pytest.raises(CatalogError):
            db.create_temp_table("t", Schema.of("a"))
        db.create_temp_table("t", Schema.of("a"), replace=True)

    def test_drop_prefers_temp(self, db):
        db.create_table("t", Schema.of("a"))
        db.create_temp_table("t", Schema.of("a"))
        db.drop_table("t")
        assert db.exists("t")  # base survives
        assert not db.table("t").temporary

    def test_drop_all_temp(self, db):
        db.create_temp_table("a", Schema.of("x"))
        db.create_temp_table("b", Schema.of("x"))
        db.drop_all_temp_tables()
        assert not db.exists("a") and not db.exists("b")


class TestRename:
    def test_rename_swaps_catalog_entry(self, db):
        db.create_temp_table("old", Schema.of("a"))
        db.rename_table("old", "new")
        assert db.exists("new") and not db.exists("old")
        assert db.table("new").name == "new"

    def test_rename_collision(self, db):
        db.create_table("a", Schema.of("x"))
        db.create_table("b", Schema.of("x"))
        with pytest.raises(CatalogError):
            db.rename_table("a", "b")


class TestLoaders:
    def test_load_edge_table_weighted_default(self, db):
        table = db.load_edge_table("E", [(1, 2), (2, 3, 0.5)])
        assert table.snapshot().rows == ((1, 2, 1.0), (2, 3, 0.5))
        assert table.schema.primary_key == ("F", "T")

    def test_edge_table_rejects_duplicate_edge(self, db):
        with pytest.raises(ConstraintError):
            db.load_edge_table("E", [(1, 2), (1, 2)])

    def test_load_node_table(self, db):
        table = db.load_node_table("V", [(1, 0.5), (2, 1.5)])
        assert table.snapshot().to_dict() == {1: 0.5, 2: 1.5}
        assert table.statistics.fresh

    def test_register_replaces(self, db):
        db.register("r", Relation.from_pairs(("a",), [(1,)]))
        db.register("r", Relation.from_pairs(("a",), [(2,)]))
        assert db.relation("r").rows == ((2,),)

    def test_register_analyzes_base_tables_only(self, db):
        """Temporary tables are not auto-analyzed (``statistics``)."""
        relation = Relation.from_pairs(("a",), [(1,), (2,)])
        base = db.register("r", relation)
        assert base.statistics.fresh and base.statistics.row_count == 2
        temp = db.register("t", relation, temporary=True)
        assert temp.temporary and temp.statistics.fresh is False
        assert temp.statistics.columns == {}
        assert db.relation("t").rows == ((1,), (2,))
