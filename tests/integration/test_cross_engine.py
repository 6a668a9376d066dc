"""Cross-engine consistency: the SQL path, the algebra path, the three
baseline engines and the references all compute the same answers on random
graphs (property-based)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algorithms import bellman_ford, pagerank, tc, wcc
from repro.datasets import preferential_attachment
from repro.graphsystems import gas, pregel, socialite
from repro.relational import Engine

from ..conftest import assert_same_values, reference_engine

graphs = st.builds(
    lambda n, seed: preferential_attachment(max(n, 4), 3.0, directed=True,
                                            seed=seed),
    st.integers(5, 20), st.integers(0, 30))


@given(graphs)
@settings(max_examples=10, deadline=None)
def test_sssp_five_ways(graph):
    expected = bellman_ford.run_reference(graph, 0).values
    assert_same_values(
        bellman_ford.run_sql(Engine("oracle"), graph, 0).values, expected)
    assert_same_values(bellman_ford.run_algebra(graph, 0).values, expected)
    assert_same_values(gas.sssp(graph, 0).values, expected)
    assert_same_values(pregel.sssp(graph, 0).values, expected)
    assert_same_values(socialite.sssp(graph, 0).values, expected)


@given(graphs)
@settings(max_examples=10, deadline=None)
def test_wcc_five_ways(graph):
    expected = wcc.run_reference(graph).values
    assert_same_values(wcc.run_sql(Engine("db2"), graph).values, expected)
    assert_same_values(wcc.run_algebra(graph).values, expected)
    assert_same_values(gas.wcc(graph).values, expected)
    assert_same_values(pregel.wcc(graph).values, expected)
    assert_same_values(socialite.wcc(graph).values, expected)


@given(graphs)
@settings(max_examples=8, deadline=None)
def test_pagerank_five_ways(graph):
    expected = pagerank.run_reference(graph, iterations=8).values
    assert_same_values(
        pagerank.run_sql(Engine("postgres"), graph, iterations=8).values,
        expected, tol=1e-9)
    assert_same_values(pagerank.run_algebra(graph, iterations=8).values,
                       expected, tol=1e-9)
    assert_same_values(gas.pagerank(graph, iterations=8).values,
                       expected, tol=1e-9)
    assert_same_values(pregel.pagerank(graph, iterations=8).values,
                       expected, tol=1e-9)
    assert_same_values(socialite.pagerank(graph, iterations=8).values,
                       expected, tol=1e-9)


@given(graphs)
@settings(max_examples=8, deadline=None)
def test_tc_sql_vs_algebra_vs_reference(graph):
    expected = tc.run_reference(graph).values
    assert tc.run_sql(Engine("oracle"), graph).values == expected
    assert tc.run_algebra(graph).values == expected


@pytest.mark.parametrize("dialect", ["oracle", "db2", "postgres"])
def test_dialects_agree_bit_for_bit(dialect, small_directed):
    """Dialect profiles change plans, never answers."""
    baseline = pagerank.run_sql(reference_engine("oracle"),
                                small_directed).values
    got = pagerank.run_sql(reference_engine(dialect), small_directed).values
    assert got == baseline
