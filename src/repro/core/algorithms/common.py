"""Shared helpers for the algorithm modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphsystems.graph import Graph
from repro.relational.engine import Engine
from repro.relational.recursive import IterationStat

#: Stand-in for +infinity in generated SQL text (DOUBLE-safe sentinel).
SQL_INFINITY = "1e18"
INF = 1e18


@dataclass
class AlgoResult:
    """Uniform result: per-node (or per-edge) values plus iteration stats."""

    values: dict
    iterations: int = 0
    per_iteration: list[IterationStat] = field(default_factory=list)


def load_graph(engine: Engine, graph: Graph,
               node_value: float = 0.0) -> None:
    """Create the paper's relations for *graph*:

    * ``E(F, T, ew)`` — the edge/matrix relation;
    * ``V(ID, vw)``  — the node/vector relation, ``vw`` = *node_value*;
    * ``W(ID, w)``   — the node weights (MNM);
    * ``L(ID, lbl)`` — the node labels (LP, KS).

    Each is loaded with ``Table.load``: typed vectors on columnar storage.
    """
    database = engine.database
    nodes = list(graph.nodes())
    database.load_edge_table("E", graph.weighted_edges())
    database.load_node_table("V", [(v, node_value) for v in nodes])
    database.register("W", _two_column(
        "w", nodes, list(map(graph.node_weight, nodes))))
    database.register("L", _two_column(
        "lbl", nodes, [float(graph.label(v)) for v in nodes]))


def _two_column(value_name: str, nodes: list, values: list):
    """The relation ``(ID, value_name)`` pairing *nodes* with *values*."""
    from repro.relational.relation import Relation
    from repro.relational.schema import Schema
    from repro.relational.types import SqlType

    schema = Schema.of(("ID", SqlType.INTEGER), (value_name, SqlType.DOUBLE),
                       primary_key=("ID",))
    return Relation.from_trusted_rows(schema, list(zip(nodes, values)))


def prepare_transition(engine: Engine, table: str = "S") -> None:
    """Create the out-degree-normalised transition relation ``S(F, T, ew)``
    from ``E`` — the PageRank/RWR edge weights.  On columnar storage
    ``1.0 / D.c`` divides on arrays and ``S`` loads from the vectors."""
    relation = engine.execute(
        "select E.F, E.T, 1.0 / D.c as ew"
        " from E, (select F, count(*) as c from E group by F) as D"
        " where E.F = D.F")
    engine.database.register(table, relation)


def rows_to_dict(relation) -> dict:
    """First column → second column (node-value results)."""
    return {row[0]: row[1] for row in relation.rows}


def edge_rows_to_dict(relation) -> dict:
    """(F, T) → value (edge/matrix results)."""
    return {(row[0], row[1]): row[2] for row in relation.rows}
