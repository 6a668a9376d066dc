"""The catalog: named tables, temporary tables and DDL operations.

A :class:`Database` is a single-session, in-memory catalog.  Temporary
tables live in a separate namespace layer that shadows base tables (as in
PostgreSQL's ``pg_temp`` schema) and can be dropped wholesale at the end of
a PSM procedure.  ``rename_table`` exists to support the paper's
*drop/alter* union-by-update strategy, which swaps a freshly computed table
in place of the previous iteration's table.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .columnar import check_storage
from .errors import CatalogError
from .relation import Relation
from .schema import Schema
from .table import Table


class Database:
    """An in-memory catalog of base and temporary tables.

    ``storage`` is the physical backend every table (base and temporary)
    is created with — ``"rows"`` or ``"columnar"``; any other name raises
    ``ValueError`` here, not at the first ``CREATE``.  An
    :class:`~repro.relational.Engine` sets it to its profile's storage.
    """

    def __init__(self, name: str = "repro", storage: str = "columnar"):
        self.name = name
        self.storage = check_storage(storage)
        self._tables: dict[str, Table] = {}
        self._temp_tables: dict[str, Table] = {}

    # -- DDL ---------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema,
                     enforce_key: bool = True) -> Table:
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema, temporary=False, enforce_key=enforce_key,
                      storage=self.storage)
        self._tables[key] = table
        return table

    def create_temp_table(self, name: str, schema: Schema,
                          enforce_key: bool = False,
                          replace: bool = False) -> Table:
        """Create a session temporary table (shadows any base table)."""
        key = name.lower()
        if key in self._temp_tables:
            if not replace:
                raise CatalogError(f"temporary table {name!r} already exists")
            del self._temp_tables[key]
        table = Table(name, schema, temporary=True, enforce_key=enforce_key,
                      storage=self.storage)
        self._temp_tables[key] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        if key in self._temp_tables:
            del self._temp_tables[key]
            return
        if key in self._tables:
            del self._tables[key]
            return
        if not if_exists:
            raise CatalogError(f"no table {name!r} to drop")

    def rename_table(self, old: str, new: str) -> None:
        """ALTER TABLE ... RENAME — used by the drop/alter swap strategy."""
        old_key, new_key = old.lower(), new.lower()
        for namespace in (self._temp_tables, self._tables):
            if old_key in namespace:
                if self.exists(new):
                    raise CatalogError(f"table {new!r} already exists")
                table = namespace.pop(old_key)
                table.name = new
                namespace[new_key] = table
                return
        raise CatalogError(f"no table {old!r} to rename")

    def drop_all_temp_tables(self) -> None:
        self._temp_tables.clear()

    # -- lookup ---------------------------------------------------------------------

    def table(self, name: str) -> Table:
        key = name.lower()
        if key in self._temp_tables:
            return self._temp_tables[key]
        if key in self._tables:
            return self._tables[key]
        raise CatalogError(f"no table named {name!r}")

    def exists(self, name: str) -> bool:
        key = name.lower()
        return key in self._temp_tables or key in self._tables

    def relation(self, name: str) -> Relation:
        """Snapshot of a table's contents."""
        return self.table(name).snapshot()

    def table_names(self) -> list[str]:
        return sorted({t.name for t in self._tables.values()}
                      | {t.name for t in self._temp_tables.values()})

    def all_tables(self) -> list[Table]:
        """Every live table, base then temporary (observability walks
        this to snapshot storage counters)."""
        return list(self._tables.values()) + list(self._temp_tables.values())

    # -- convenience loading -----------------------------------------------------------

    def register(self, name: str, relation: Relation,
                 enforce_key: bool = False, temporary: bool = False) -> Table:
        """Create a table named *name* with *relation*'s schema and
        contents (:meth:`Table.load`), ANALYZEd unless *temporary* —
        temporary tables are not auto-analyzed (:mod:`.statistics`)."""
        if temporary:
            table = self.create_temp_table(name, relation.schema,
                                           enforce_key=enforce_key, replace=True)
        else:
            if self.exists(name):
                self.drop_table(name)
            table = self.create_table(name, relation.schema,
                                      enforce_key=enforce_key)
        table.load(relation)
        if not temporary:
            table.analyze()
        return table

    def load_edge_table(self, name: str,
                        edges: Iterable[Sequence],
                        weighted: bool = True) -> Table:
        """Create the paper's edge relation E(F, T[, ew])."""
        from .types import SqlType

        if weighted:
            schema = Schema.of(("F", SqlType.INTEGER), ("T", SqlType.INTEGER),
                               ("ew", SqlType.DOUBLE), primary_key=("F", "T"))
            rows = [tuple(e) if len(e) == 3 else (e[0], e[1], 1.0) for e in edges]
        else:
            schema = Schema.of(("F", SqlType.INTEGER), ("T", SqlType.INTEGER),
                               primary_key=("F", "T"))
            rows = [(e[0], e[1]) for e in edges]
        return self._load_table(name, schema, rows)

    def load_node_table(self, name: str,
                        nodes: Iterable[Sequence]) -> Table:
        """Create the paper's node relation V(ID, vw)."""
        from .types import SqlType

        schema = Schema.of(("ID", SqlType.INTEGER), ("vw", SqlType.DOUBLE),
                           primary_key=("ID",))
        return self._load_table(name, schema, [tuple(n) for n in nodes])

    def _load_table(self, name: str, schema: Schema, rows: list) -> Table:
        """(Re)create the keyed base table *name* holding *rows*,
        ANALYZEd."""
        if self.exists(name):
            self.drop_table(name)
        table = self.create_table(name, schema, enforce_key=True)
        table.load(rows)
        table.analyze()
        return table
