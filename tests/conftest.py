"""Shared test fixtures: tiny graphs and relations used across suites."""

from __future__ import annotations

import pytest

from repro.datasets import preferential_attachment, random_dag
from repro.graphsystems.graph import Graph
from repro.relational import REFERENCE_PROFILE, Engine
from repro.relational.errors import ConstraintError, SchemaError
from repro.relational.recursive import RecursiveExecutor
from repro.relational.relation import Relation


def reference_engine(dialect: str = "oracle", **kwargs) -> Engine:
    """The differential tests' independent side: ``REFERENCE_PROFILE``
    (tuple executor, dialect planner, row storage — the paper's modelled
    RDBMS), with *kwargs* (``mode``, ``telemetry``, ...) passed on.  A
    bare ``Engine()`` is the array engine, so comparing against it would
    compare the default with itself."""
    return Engine(dialect, **REFERENCE_PROFILE, **kwargs)


def engine_over_row_tables(load, dialect: str = "oracle") -> Engine:
    """``Engine()`` attached to a catalog of row-storage tables: *load*
    fills them on a reference engine, then the array engine takes the
    catalog over.  The tables keep their storage (the tables it creates
    itself are columnar), so its batch operators read them through their
    row loops, whatever the values."""
    loader = reference_engine(dialect)
    load(loader)
    return Engine(dialect, database=loader.database)


def refused_keys(table, keys) -> list:
    """The primary-key tuples among *keys* that an ``insert_many`` into
    *table* refuses as duplicates.  Each probe is a row holding the key
    (NULL elsewhere) followed by a row of the wrong arity, so the insert
    fails either way — ``ConstraintError`` for a held key, else
    ``SchemaError`` — and leaves the table as it was."""
    positions = table.schema.key_indexes()
    refused = []
    for key in keys:
        row = [None] * table.schema.arity
        for position, value in zip(positions, key):
            row[position] = value
        try:
            table.insert_many([tuple(row), ()])
        except ConstraintError:
            refused.append(key)
        except SchemaError:
            pass
    return refused


@pytest.fixture
def branch_plan_runs(monkeypatch) -> list:
    """Spy: one entry per branch-plan execution in a recursive CTE's
    loop, ``"kept"`` or ``"new"`` — what a union-by-update step saves."""
    runs = []
    for name, kind in (("_run_cached_branch", "kept"),
                       ("_plan_and_run_branch", "new")):
        original = getattr(RecursiveExecutor, name)

        def spy(self, *args, _original=original, _kind=kind, **kwargs):
            runs.append(_kind)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(RecursiveExecutor, name, spy)
    return runs


@pytest.fixture
def tiny_graph() -> Graph:
    """A 5-node directed graph with known structure::

        1 → 2 → 3
        1 → 3   3 → 4
        5 (isolated)
    """
    graph = Graph(directed=True, name="tiny")
    for edge in [(1, 2), (2, 3), (1, 3), (3, 4)]:
        graph.add_edge(*edge)
    graph.add_node(5)
    for node in graph.nodes():
        graph.set_label(node, node % 2)
        graph.set_node_weight(node, float(node))
    return graph


@pytest.fixture
def small_directed() -> Graph:
    graph = preferential_attachment(40, 4.0, directed=True, seed=11,
                                    name="small-directed")
    graph.randomize_node_weights(seed=12)
    graph.randomize_labels(4, seed=13)
    return graph


@pytest.fixture
def small_undirected() -> Graph:
    graph = preferential_attachment(30, 6.0, directed=False, seed=21,
                                    name="small-undirected")
    graph.randomize_node_weights(seed=22)
    graph.randomize_labels(4, seed=23)
    return graph


@pytest.fixture
def small_dag() -> Graph:
    return random_dag(30, 2.5, seed=31, name="small-dag")


@pytest.fixture(params=["oracle", "db2", "postgres"])
def any_engine(request) -> Engine:
    """One engine per dialect profile."""
    return Engine(request.param)


@pytest.fixture
def oracle_engine() -> Engine:
    return Engine("oracle")


@pytest.fixture
def postgres_engine() -> Engine:
    return Engine("postgres")


@pytest.fixture
def edges_relation() -> Relation:
    return Relation.from_pairs(
        ("F", "T", "ew"),
        [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 2.0), (3, 4, 1.0)])


@pytest.fixture
def nodes_relation() -> Relation:
    return Relation.from_pairs(
        ("ID", "vw"), [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)])


def approx_equal(a, b, tol=1e-9) -> bool:
    if a is None or b is None:
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def assert_same_values(got: dict, expected: dict, tol=1e-9) -> None:
    assert set(got) == set(expected), \
        f"key mismatch: {set(got) ^ set(expected)}"
    for key in expected:
        g, e = got[key], expected[key]
        if isinstance(g, tuple):
            assert all(approx_equal(x, y, tol) for x, y in zip(g, e)), \
                f"{key}: {g} != {e}"
        else:
            assert approx_equal(g, e, tol), f"{key}: {g} != {e}"
