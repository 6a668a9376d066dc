"""Inspect what the system generates: with+ text, SQL/PSM per dialect,
Datalog views (Theorem 5.1), physical plans per dialect, and the
union-by-update SQL variants of Exp-1.

Run:  python examples/show_sql.py
"""

from repro.core.algorithms import hits, pagerank, toposort
from repro.core.withplus import WithPlusQuery
from repro.datasets import preferential_attachment
from repro.relational import REFERENCE_PROFILE, Engine
from repro.relational.strategies import (
    UNION_BY_UPDATE_STRATEGIES,
    union_by_update_sql,
)


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    graph = preferential_attachment(50, 4.0, directed=True, seed=1)

    banner("Fig 3 — PageRank in with+")
    print(pagerank.sql(graph.num_nodes, iterations=15).strip())

    banner("Fig 5 — TopoSort in with+ (anti-join via NOT IN)")
    print(toposort.sql_variant("not_in").strip())

    banner("Fig 6 — HITS in with+ (mutual recursion via COMPUTED BY)")
    print(hits.sql(iterations=15).strip())

    banner("Algorithm 1 — the SQL/PSM translation, per dialect")
    query = pagerank.sql(graph.num_nodes, iterations=15)
    for dialect in ("postgres", "oracle", "db2"):
        engine = Engine(dialect)
        print(f"\n--- {dialect} ({engine.dialect.psm_language}) ---")
        print(engine.to_psm(query).render())

    banner("Section 5 — the temporal Datalog view (Theorem 5.1 checking)")
    wrapped = WithPlusQuery(toposort.sql())
    for name, program in wrapped.datalog_views().items():
        print(f"-- recursive relation {name}:")
        print(program)

    banner("EXPLAIN — one MV-join under each dialect profile")
    join = ("select E.T, sum(P.vw * E.ew) as s from P, E"
            " where P.ID = E.F group by E.T")
    for dialect in ("oracle", "db2", "postgres"):
        # the dialect's own planner: the default cost-based optimizer
        # would give all three the same plan
        engine = Engine(dialect, **REFERENCE_PROFILE)
        engine.database.load_edge_table(
            "E", [(u, v, w) for u, v, w in graph.weighted_edges()])
        temp = engine.database.create_temp_table(
            "P", engine.database.table("E").schema.project(["F", "ew"])
            .rename_columns(["ID", "vw"]))
        temp.insert_many((v, 1.0) for v in graph.nodes())
        print(f"\n--- {dialect} ---")
        print(engine.explain(join))

    banner("Exp-1 — the four union-by-update implementations in SQL")
    for strategy in UNION_BY_UPDATE_STRATEGIES:
        print(f"\n--- {strategy} ---")
        print(union_by_update_sql("V", "V_new", "ID", ["vw"], strategy))


if __name__ == "__main__":
    main()
