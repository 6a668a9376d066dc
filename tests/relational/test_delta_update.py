"""Union-by-update rounds on the changed rows.

``Engine()`` over columnar storage evaluates a union-by-update CTE that
``recursive.delta_update_is_exact`` proves — SSSP's and WCC's shape, the
candidates folded by ``min``/``max`` together with R itself — from round 2
on by probing the stable table with the rows the last round changed and
writing only what they improve (``delta_update.DeltaUpdate``); a round the step
cannot prove equal runs the branch plan.  Either way every round must
write what the reference profile's full evaluation writes: the rows,
``repr`` for ``repr``, and each round's ``(inserted, overwritten)``.
"""

from __future__ import annotations

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import bellman_ford, pagerank, wcc
from repro.core.algorithms.common import load_graph, prepare_transition
from repro.datasets import preferential_attachment
from repro.relational import (REFERENCE_PROFILE, Engine, WarmStart,
                              delta_update)
from repro.relational.physical.blocks import (ArrayVector, CsrIndex,
                                              csr_index, improve_extremes)
from repro.relational.relation import Relation

from ..conftest import engine_over_row_tables

INF = math.inf

#: Edge weights: zero, negatives and non-integral values — and, in about
#: half the graphs, also -0.0, infinities (whose sums and products make
#: NaN) and NaN itself.
WEIGHTS = (0.0, 1.0, 2.0, 0.5, -1.0, -2.5, 1.25, 3.0)
SPECIAL_WEIGHTS = (-0.0, INF, -INF, math.nan)

#: The candidate each edge derives from R's value x and its weight w.
CANDIDATES = ("R.d + E.ew", "R.d * E.ew", "E.ew - R.d")


def _sql(value_type: str, seeds, candidate: str, function: str,
         cap: int) -> str:
    zero, rest = ("0", "1000") if value_type == "int" else ("0.0", "1000.0")
    if seeds is None:
        initial = (f"select ID, case when ID = 0 then {zero} else {rest}"
                   " end from V")
    else:
        listed = ", ".join(map(str, seeds))
        initial = f"select ID, {zero} from V where ID in ({listed})"
    return f"""
        with R(ID, d) as (
          ({initial})
          union by update ID
          (select X.ID, {function}(X.d) from
             ((select E.T as ID, {candidate} as d from R, E
               where R.ID = E.F)
              union all
              (select ID, d from R)) as X
           group by X.ID)
          maxrecursion {cap}
        ) select ID, d from R"""


def _engine(edges, nodes: int, **profile) -> Engine:
    engine = Engine("oracle", **profile)
    engine.database.load_edge_table("E", edges)
    engine.database.load_node_table("V", [(i, 0.0) for i in range(nodes)])
    return engine


def _outcome(engine: Engine, sql: str, warm):
    try:
        result = engine.execute_detailed(
            sql, warm_start=None if warm is None else {"R": WarmStart(warm)})
    except Exception as error:  # noqa: BLE001 — compared below
        return ("error", type(error).__name__, str(error)), None
    return (repr(result.relation.rows), result.iterations,
            result.hit_maxrecursion,
            [(s.delta_rows, s.inserted, s.overwritten, s.pruned)
             for s in result.per_iteration]), \
        result


@st.composite
def programs(draw):
    nodes = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, nodes - 1),
                                    st.integers(0, nodes - 1)),
                          min_size=1, max_size=3 * nodes, unique=True))
    weights = WEIGHTS + (SPECIAL_WEIGHTS if draw(st.booleans()) else ())
    edges = [(u, v, draw(st.sampled_from(weights))) for u, v in pairs]
    value_type = draw(st.sampled_from(("int", "double")))
    seeds = draw(st.none() | st.lists(st.integers(0, nodes - 1),
                                      min_size=1, max_size=nodes,
                                      unique=True))
    warm = None
    if draw(st.booleans()):
        values = (st.integers(-3, 20) if value_type == "int" else
                  st.sampled_from((0.0, -0.0, 1.5, -2.0, 7.0, 1000.0)))
        keys = range(nodes) if seeds is None else seeds
        warm = Relation.from_pairs(("ID", "d"), [
            (key, draw(values)) for key in keys])
    return dict(edges=edges, nodes=nodes, warm=warm,
                sql=_sql(value_type, seeds, draw(st.sampled_from(CANDIDATES)),
                         draw(st.sampled_from(("min", "max"))),
                         draw(st.integers(1, 12))),
                # (share, rows): a quarter of R, or any number of rows,
                # or the default cost rule (small tables always step)
                size=draw(st.sampled_from(((0.25, 0), (1.0, 0), None))))


#: Full evaluation of the same cost-based plans: no round takes the step.
#: (Against the dialect planner's join order a NaN candidate may sit
#: elsewhere in a group, and where a NaN sits decides what ``min`` keeps.)
NO_STEP = dict(DELTA_UPDATE_SHARE=0.0, DELTA_UPDATE_ROWS=0)


@settings(max_examples=300, deadline=None)
@given(program=programs())
def test_delta_rounds_write_what_full_rounds_write(program):
    """Any round may take the step or run the plan (the cost rule only
    moves the line between them), and either way writes what full
    evaluation writes: rows and per-round counts."""
    edges, nodes = program["edges"], program["nodes"]
    with mock.patch.multiple(delta_update, **NO_STEP):
        want, full = _outcome(_engine(edges, nodes), program["sql"],
                              program["warm"])
    assert full is None or full.steps == 0
    share, rows = program["size"] or (delta_update.DELTA_UPDATE_SHARE,
                                      delta_update.DELTA_UPDATE_ROWS)
    with mock.patch.multiple(delta_update, DELTA_UPDATE_SHARE=share,
                             DELTA_UPDATE_ROWS=rows):
        got, result = _outcome(_engine(edges, nodes), program["sql"],
                               program["warm"])
    assert got == want
    if result is not None:
        stepped = any(s.binding == "delta" for s in result.per_iteration)
        assert result.binding == {"R": "delta" if stepped else "full"}


def _registry_engine(graph, engine=None, **profile) -> Engine:
    engine = engine or Engine("oracle", **profile)
    load_graph(engine, graph)
    wcc.prepare_symmetric_edges(engine)
    return engine


@pytest.mark.parametrize("statement", ("sssp", "wcc"))
def test_sssp_and_wcc_read_the_changed_rows(statement, monkeypatch):
    graph = preferential_attachment(400, 4.0, directed=True, seed=7)
    sql = bellman_ford.sql(0) if statement == "sssp" else wcc.sql()
    probed = []
    probe_rows = CsrIndex.probe_rows

    def spy(index, keys, rows):
        probed.append(len(rows))
        return probe_rows(index, keys, rows)

    monkeypatch.setattr(CsrIndex, "probe_rows", spy)
    ours = _registry_engine(graph).execute_detailed(sql)
    theirs = _registry_engine(graph, **REFERENCE_PROFILE).execute_detailed(sql)
    assert repr(ours.relation.rows) == repr(theirs.relation.rows)
    assert [(s.delta_rows, s.inserted, s.overwritten, s.pruned)
            for s in ours.per_iteration] == \
        [(s.delta_rows, s.inserted, s.overwritten, s.pruned)
         for s in theirs.per_iteration]
    stepped = [s for s in ours.per_iteration if s.binding == "delta"]
    assert stepped and ours.per_iteration[0].binding == "full"
    # One probe per step, of the rows the last round changed: by the
    # last step a few, not all of R.
    assert len(probed) == len(stepped)
    assert probed[-1] < graph.num_nodes // 4


def test_a_new_key_runs_the_plan():
    # Seeded with node 0 only: each round derives a key R does not hold
    # yet, which only the plan's merge appends — until the last, whose
    # changed row (node 9) has no edge to probe.
    edges = [(i, i + 1, 1.0) for i in range(9)]
    sql = _sql("double", [0], "R.d + E.ew", "min", 20)
    ours = _engine(edges, 10).execute_detailed(sql)
    assert [s.inserted for s in ours.per_iteration] == [1] * 9 + [0]
    assert [s.binding for s in ours.per_iteration] == \
        ["full"] * 9 + ["delta"]


# -- warm starts with a frontier ---------------------------------------------------


def _statement(result) -> tuple:
    return (repr(result.relation.rows), result.iterations,
            [(s.delta_rows, s.inserted, s.overwritten, s.pruned)
             for s in result.per_iteration])


def _warm_sssp():
    """Two columnar engines that kept SSSP's plans from a cold run over
    the same graph, that graph, and the cold result as a seed."""
    graph = preferential_attachment(120, 3.0, directed=True, seed=3)
    engines = [_registry_engine(graph) for _ in range(2)]
    cold = [engine.execute_detailed(bellman_ford.sql(0))
            for engine in engines][0]
    seed = Relation.from_pairs(("ID", "d"), cold.relation.rows)
    return engines, graph, seed


def _reset(seed: Relation, graph, vertex: int):
    """*seed* with *vertex*'s distance reset, and the frontier that
    reset needs: the vertex and its in-neighbours."""
    rows = [(v, 1e18 if v == vertex else d) for v, d in seed.rows]
    frontier = np.array([vertex, *graph.in_neighbors(vertex)], np.int64)
    return Relation.from_pairs(("ID", "d"), rows), frontier


def _reached(graph, seed: Relation) -> int:
    """A vertex with a finite distance other than the source's and two
    in-neighbours or more."""
    return next(v for v, d in seed.rows
                if 0 < d < 1e18 and len(graph.in_neighbors(v)) > 1)


def test_a_frontier_steps_round_one_and_writes_the_plans_rows(
        branch_plan_runs):
    (ours, theirs), graph, seed = _warm_sssp()
    seed, frontier = _reset(seed, graph, _reached(graph, seed))
    branch_plan_runs.clear()
    got = ours.execute_detailed(bellman_ford.sql(0), warm_start={
        "D": WarmStart(seed, frontier)})
    assert got.per_iteration[0].binding == "delta"
    assert got.steps == got.iterations and branch_plan_runs == []
    want = theirs.execute_detailed(bellman_ford.sql(0),
                                   warm_start={"D": WarmStart(seed)})
    assert want.per_iteration[0].binding == "full"
    assert _statement(got) == _statement(want)


def test_a_frontier_key_r_lacks_runs_the_plan(branch_plan_runs):
    (ours, theirs), graph, seed = _warm_sssp()
    seed, frontier = _reset(seed, graph, _reached(graph, seed))
    branch_plan_runs.clear()
    got = ours.execute_detailed(bellman_ford.sql(0), warm_start={
        "D": WarmStart(seed, np.append(frontier, 10 ** 6))})
    assert got.per_iteration[0].binding == "full"
    assert branch_plan_runs[:1] == ["kept"]
    want = theirs.execute_detailed(bellman_ford.sql(0),
                                   warm_start={"D": WarmStart(seed)})
    assert _statement(got) == _statement(want)


def test_an_empty_frontier_on_a_fixpoint_is_one_round_without_the_plan(
        branch_plan_runs):
    (engine, _), _, seed = _warm_sssp()
    branch_plan_runs.clear()
    result = engine.execute_detailed(bellman_ford.sql(0), warm_start={
        "D": WarmStart(seed, np.zeros(0, np.int64))})
    assert result.iterations == result.steps == 1
    (stat,) = result.per_iteration
    assert (stat.binding, stat.inserted, stat.overwritten) == ("delta", 0, 0)
    assert branch_plan_runs == []
    assert repr(result.relation.rows) == repr(seed.rows)


def test_the_analysis_header_counts_the_rounds_that_stepped():
    (engine, _), graph, seed = _warm_sssp()
    seed, frontier = _reset(seed, graph, _reached(graph, seed))
    header = engine.explain_analyze(bellman_ford.sql(0), warm_start={
        "D": WarmStart(seed, frontier)}).splitlines()[0]
    iterations = int(re.search(r"iterations=(\d+)", header).group(1))
    assert header.endswith(f" replans=0 steps={iterations} binding=delta")


@pytest.mark.parametrize("statement, profile", [
    ("pagerank", {}),
    ("sssp", REFERENCE_PROFILE),
    ("sssp", "rows"),
], ids=["pagerank", "reference", "rows"])
def test_a_frontier_is_ignored_where_no_round_may_step(statement, profile):
    """PageRank has no step; the reference profile plans no step; and
    ``Engine()`` over an attached catalog of row tables has no columnar
    edge table for a step to probe."""
    graph = preferential_attachment(60, 3.0, directed=True, seed=4)
    if profile == "rows":
        engines = [engine_over_row_tables(
            lambda engine: _registry_engine(graph, engine=engine))
            for _ in range(2)]
    else:
        engines = [_registry_engine(graph, **profile) for _ in range(2)]
    if statement == "pagerank":
        sql, name = pagerank.sql(graph.num_nodes, iterations=6), "P"
        for engine in engines:
            prepare_transition(engine)
    else:
        sql, name = bellman_ford.sql(0), "D"
    # a cold run on each engine, so both warm starts find the plans kept
    cold = [engine.execute_detailed(sql) for engine in engines][0]
    seed = Relation.from_pairs(cold.relation.schema.names, cold.relation.rows)
    frontier = np.array([v for v, _ in cold.relation.rows], np.int64)
    got = engines[0].execute_detailed(
        sql, warm_start={name: WarmStart(seed, frontier)})
    want = engines[1].execute_detailed(sql, warm_start={name: WarmStart(seed)})
    assert got.per_iteration[0].binding == "full" and got.steps == 0
    assert _statement(got) == _statement(want)


# -- the kernel ------------------------------------------------------------------


def _vector(values, dtype):
    return ArrayVector(np.array(values, dtype=dtype))


def test_improve_extremes_casts_candidates_as_the_column_stores_them():
    current = _vector([5, -1, 3], np.int64)
    at = np.array([0, 0, 1, 2])
    candidates = _vector([4.7, -2.5, -1.5, 3.0], np.float64)
    values, changed = improve_extremes("min", current, at, candidates,
                                       integer=True, zeros=False)
    # int() truncates: -2.5 is -2 and beats 4; -1.5 is -1, no change.
    assert values.tolist() == [-2, -1, 3] and changed.tolist() == [0]
    assert values is not current.data
    values, changed = improve_extremes("max", current, at, candidates,
                                       integer=True, zeros=False)
    assert values.tolist() == [5, -1, 3] and changed.tolist() == []


@pytest.mark.parametrize("candidate, zeros, declines", [
    (math.nan, True, True),        # NaN: the grouped min is order-bound
    (0.0, False, True),            # a zero winner, no proof: sign unknown
    (-0.0, False, True),
    (0.0, True, False),            # no -0.0 can occur: any zero is 0.0
    (2.0, False, False),
])
def test_improve_extremes_declines_what_it_cannot_prove(candidate, zeros,
                                                        declines):
    current = _vector([1.0, 3.0], np.float64)
    result = improve_extremes("min", current, np.array([0]),
                              _vector([candidate], np.float64),
                              integer=False, zeros=zeros)
    assert (result is None) == declines


def test_improve_extremes_declines_an_inexact_cast():
    current = _vector([1, 3], np.int64)
    assert improve_extremes("min", current, np.array([1]),
                            _vector([-1e19], np.float64), integer=True,
                            zeros=True) is None


def test_csr_index_locates_keys_and_refuses_strangers():
    index = csr_index(_vector([7, 3, 5, 4], np.int64))
    assert index.locate(np.array([4, 7, 7])).tolist() == [3, 0, 0]
    assert index.locate(np.array([6])) is None       # inside, not a key
    assert index.locate(np.array([2 ** 62])) is None  # outside
    twice = csr_index(_vector([1, 1, 2], np.int64))
    assert twice.locate(np.array([1])) is None       # not distinct
    assert twice.locate(np.array([2])).tolist() == [2]
