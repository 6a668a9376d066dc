"""Distinct keys by proof: a union-by-update branch grouped on its key
skips the delta consolidation inside the fixpoint loop; every other
branch shape still consolidates.

``recursive.delta_keys_are_distinct`` proves that a branch's delta holds
no key twice when the branch is a plain SELECT grouped on exactly the
select item at the update key's position.  PR, WCC and SSSP have that
shape, so their loops call ``consolidate_delta`` zero times on both
profiles.  Grouping on a non-key column, on the key and another column,
or not grouping at all leaves consolidation in place, and a conflicting
delta raises the same ``ConstraintError`` on both profiles.
"""

import pytest

from repro.core.algorithms import bellman_ford, pagerank, wcc
from repro.datasets import preferential_attachment
from repro.relational import (
    REFERENCE_PROFILE,
    Column,
    ConstraintError,
    Engine,
    Schema,
    SqlType,
)
from repro.relational import recursive, strategies
from repro.relational.sql.parser import parse_statement

PROFILES = {"default": {}, "reference": dict(REFERENCE_PROFILE)}


@pytest.fixture
def consolidations(monkeypatch):
    """The deltas ``consolidate_delta`` is called on."""
    calls = []

    def spy(delta, key_columns, _original=strategies.consolidate_delta):
        calls.append(len(delta))
        return _original(delta, key_columns)

    monkeypatch.setattr(strategies, "consolidate_delta", spy)
    return calls


def _graph():
    return preferential_attachment(60, 3.0, directed=True, seed=5)


ALGORITHMS = {
    "pr": lambda engine, graph: pagerank.run_sql(engine, graph),
    "wcc": lambda engine, graph: wcc.run_sql(engine, graph),
    "sssp": lambda engine, graph: bellman_ford.run_sql(engine, graph, 0),
}


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_grouped_on_the_key_never_consolidates(algorithm, profile,
                                               consolidations):
    engine = Engine("oracle", **PROFILES[profile])
    result = ALGORITHMS[algorithm](engine, _graph())
    assert result.iterations > 1
    assert consolidations == []


def _edges(engine: Engine) -> Engine:
    # F = 1 and F = 2 both reach T = 3: grouped by F, both give key 3 —
    # with the values 1.0 and 2.0.
    engine.database.load_edge_table("E", [(1, 3), (2, 3), (3, 4)],
                                    weighted=False)
    engine.database.load_node_table("V", [(i, 0.0) for i in range(1, 5)])
    return engine


def _ubu(branch: str) -> str:
    return f"""
        with R(ID, val) as (
          (select ID, 0.0 from V)
          union by update ID
          ({branch})
          maxrecursion 3
        ) select ID, val from R"""


GROUPED_ON_THE_KEY = _ubu(
    "select E.T, min(E.F * 1.0) from R, E where R.ID = E.F group by E.T")

#: Branch shapes the proof declines, each producing (3, 1.0) and (3, 2.0).
DECLINED = {
    "grouped on a non-key column": _ubu(
        "select min(E.T), E.F * 1.0 from R, E where R.ID = E.F"
        " group by E.F"),
    "grouped on the key and another column": _ubu(
        "select E.T, E.F * 1.0 from R, E where R.ID = E.F"
        " group by E.T, E.F"),
    "ungrouped": _ubu(
        "select E.T, E.F * 1.0 from R, E where R.ID = E.F"),
}


@pytest.mark.parametrize("shape", sorted(DECLINED))
def test_other_shapes_consolidate_and_raise_the_same_error(shape,
                                                           consolidations):
    messages = set()
    for options in PROFILES.values():
        engine = _edges(Engine("oracle", **options))
        with pytest.raises(ConstraintError) as caught:
            engine.execute(DECLINED[shape])
        messages.add(str(caught.value))
    assert len(consolidations) == 2  # iteration 1, on each profile
    assert messages == {"union by update delta has conflicting rows for"
                        " key (3,): (3, 1.0) vs (3, 2.0)"}


def test_exact_duplicates_still_collapse(consolidations):
    sql = _ubu("select E.T, 5.0 from R, E where R.ID = E.F")
    results = [_edges(Engine("oracle", **options)).execute_detailed(sql)
               for options in PROFILES.values()]
    assert consolidations
    rows = {repr(result.relation.rows) for result in results}
    assert rows == {repr(((1, 0.0), (2, 0.0), (3, 5.0), (4, 5.0)))}
    per_iteration = {repr([(s.inserted, s.overwritten) for s
                           in result.per_iteration]) for result in results}
    assert len(per_iteration) == 1


def test_the_proof_runs_once_per_kept_statement(monkeypatch,
                                                consolidations):
    proofs = []

    def spy(*args, _original=recursive.delta_keys_are_distinct):
        proofs.append(_original(*args))
        return proofs[-1]

    monkeypatch.setattr(recursive, "delta_keys_are_distinct", spy)
    engine = _edges(Engine("oracle"))
    first = engine.execute_detailed(GROUPED_ON_THE_KEY)
    again = engine.execute_detailed(GROUPED_ON_THE_KEY)
    assert again.plans_compiled == 0
    assert proofs == [True]
    assert consolidations == []
    assert repr(again.relation.rows) == repr(first.relation.rows)


R = Schema((Column("ID", SqlType.INTEGER), Column("val", SqlType.DOUBLE)))


@pytest.mark.parametrize("sql, proven", [
    (GROUPED_ON_THE_KEY, True),
    # A HAVING keeps some of the groups: still one row per key.
    (_ubu("select E.T, min(E.F * 1.0) from R, E where R.ID = E.F"
          " group by E.T having count(*) > 1"), True),
    # The GROUP BY names the key item by another AST (its alias).
    (_ubu("select E.T as k, min(E.F * 1.0) from R, E where R.ID = E.F"
          " group by k"), False),
    # Grouped on the key, but the key is not at the key's position.
    (_ubu("select min(E.F * 1.0), E.T from R, E where R.ID = E.F"
          " group by E.T"), False),
] + [(sql, False) for sql in DECLINED.values()])
def test_which_branches_the_proof_accepts(sql, proven):
    (cte,) = parse_statement(sql).ctes
    assert recursive.delta_keys_are_distinct(cte, R) is proven
