"""Streaming mutations must invalidate every piece of derived state.

Before the streaming PR, ``delete_by_key`` paths could leave a cached
join-index position map, a stale ``TableStatistics`` snapshot, or a
cost-planner fingerprint pointing at pre-mutation row sets — a follow-up
query would then join against tombstoned rows or replan from dead
cardinalities.  These tests pin the invalidation contract."""

from collections import Counter

import numpy as np

from repro.graphsystems.graph import Graph
from repro.relational import Engine
from repro.relational.physical.blocks import csr_index


def chain_graph(n=8):
    graph = Graph(directed=True, name="stale-state")
    for v in range(n):
        graph.add_node(v)
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


JOIN = ("select E.F, E.T, V.vw from E, V where E.T = V.ID")


def test_join_after_streaming_delete_skips_tombstoned_rows():
    engine = Engine("oracle")
    engine.streaming.attach_graph(chain_graph())
    before = Counter(engine.execute(JOIN).rows)
    assert (2, 3, 0.0) in before

    engine.apply_batch(deletes={"E": [(2, 3)]})
    after = Counter(engine.execute(JOIN).rows)
    assert (2, 3, 0.0) not in after
    assert sum(after.values()) == sum(before.values()) - 1

    # Reinsert with a new weight: exactly one live copy, the new one.
    engine.apply_batch(inserts={"E": [(2, 3, 5.0)]})
    rows = Counter(engine.execute("select F, T, ew from E").rows)
    assert rows[(2, 3, 5.0)] == 1
    assert rows[(2, 3, 1.0)] == 0


def test_vertex_delete_invalidates_cached_positions_map():
    engine = Engine("oracle")
    graph = chain_graph()
    engine.streaming.attach_graph(graph)
    store = engine.database.table("V").rows
    warmed, _ = store.join_index((0,), "csr")  # V's key index on ID

    engine.apply_batch(deletes={"V": [(4,)]})
    # The delete patched the index (a new object) instead of dropping it,
    # and it answers as one built over what is left.
    kept, _ = store._index_cache[("csr", (0,))]
    assert kept is not warmed
    probe = np.arange(-1, 10)
    assert [a.tolist() for a in kept.probe(probe)] \
        == [a.tolist() for a in csr_index(store.array(0)).probe(probe)]
    rows = engine.execute(JOIN).rows
    assert all(row[1] != 4 for row in rows)
    assert Counter(r[:2] for r in rows) == Counter(graph.edges())


def test_statistics_version_tracks_every_mutation():
    engine = Engine("oracle")
    engine.streaming.attach_graph(chain_graph())
    stats = engine.database.table("E").statistics

    # Both an append and a tombstoning delete must advance the version
    # the optimizer fingerprints plans and cached build sides with.
    version = stats.version
    engine.apply_batch(inserts={"E": [(0, 5)]})
    assert stats.version > version

    version = stats.version
    engine.apply_batch(deletes={"E": [(0, 5)]})
    assert stats.version > version


def test_cost_planner_replans_after_streaming_mutations():
    engine = Engine("oracle")
    engine.streaming.attach_graph(chain_graph())
    for table in engine.database.all_tables():
        table.analyze()
    before = Counter(engine.execute(JOIN).rows)

    # Bulk growth changes the join's cardinality picture entirely; the
    # planner must not reuse the fingerprinted plan's assumptions to
    # produce stale rows.
    inserts = [(100 + i, 101 + i) for i in range(40)]
    engine.apply_batch(inserts={"E": inserts})
    after = Counter(engine.execute(JOIN).rows)
    assert sum(after.values()) == sum(before.values()) + len(inserts)
    for u, v in inserts:
        assert (u, v, 0.0) in after
