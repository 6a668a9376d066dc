"""Weakly connected components (Eq. 6).

Minimum-label propagation under the min-times semiring: every node starts
with its own ID as value; each iteration takes the minimum over itself and
its neighbours; at the fixpoint all nodes of a component share the
component's smallest ID.  Directed graphs are symmetrised first (weak
connectivity), matching the paper's WCC runs.
"""

from __future__ import annotations

from repro.graphsystems.graph import Graph
from repro.relational.engine import Engine

from ..loop import fixpoint
from ..operators import mv_join, union_by_update
from ..semiring import MIN_TIMES
from .common import AlgoResult, load_graph, rows_to_dict


def prepare_symmetric_edges(engine: Engine, table: str = "ES") -> None:
    """``ES`` = E ∪ Eᵀ — the undirected view used for weak connectivity.
    On columnar storage the UNION dedups E's typed columns and ``ES``
    loads from the resulting vectors."""
    relation = engine.execute(
        "(select F, T, ew from E) union (select T as F, F as T, ew from E)")
    engine.database.register(table, relation)


def sql() -> str:
    return """
with C(ID, vw) as (
  (select ID, ID as vw from V)
  union by update ID
  (select X.ID, min(X.vw) from
     ((select ES.T as ID, C.vw * ES.ew as vw from C, ES where C.ID = ES.F)
      union all
      (select ID, vw from C)) as X
   group by X.ID)
)
select ID, vw from C
"""


def run_sql(engine: Engine, graph: Graph) -> AlgoResult:
    load_graph(engine, graph)
    prepare_symmetric_edges(engine)
    detail = engine.execute_detailed(sql())
    return AlgoResult(rows_to_dict(detail.relation), detail.iterations,
                      detail.per_iteration)


def run_algebra(graph: Graph) -> AlgoResult:
    from repro.relational.relation import Relation

    symmetric = {(u, v) for u, v in graph.edges()}
    symmetric |= {(v, u) for u, v in symmetric}
    edges = Relation.from_pairs(("F", "T", "ew"),
                                [(u, v, 1.0) for u, v in symmetric])
    initial = Relation.from_pairs(("ID", "vw"),
                                  [(v, float(v)) for v in graph.nodes()])

    def step(current, iteration):
        propagated = mv_join(edges, current, MIN_TIMES, transpose=True)
        # keep each node's own value in the min
        merged = {}
        for node, value in current.rows:
            merged[node] = value
        for node, value in propagated.rows:
            if value < merged.get(node, float("inf")):
                merged[node] = value
        return current.replace_rows(sorted(merged.items()))

    result = fixpoint(initial, step, key=("ID",))
    return AlgoResult(rows_to_dict(result.relation),
                      result.stats.iterations)


def run_reference(graph: Graph) -> AlgoResult:
    """Union-find oracle."""
    parent: dict[int, int] = {v: v for v in graph.nodes()}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    labels = {}
    for v in graph.nodes():
        labels[v] = float(find(v))
    return AlgoResult(labels)
