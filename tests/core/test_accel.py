"""The vectorised (scipy) MM/MV-join backend agrees with the pure one."""

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("scipy")  # brings numpy; both optional

from repro.core.accel import mm_join_accel, mv_join_accel  # noqa: E402
from repro.core.operators import mm_join, mv_join
from repro.core.semiring import MAX_TIMES, MIN_PLUS, MIN_TIMES, PLUS_TIMES
from repro.relational.relation import Relation


def matrix(entries):
    return Relation.from_pairs(("F", "T", "ew"), entries)


def vector(entries):
    return Relation.from_pairs(("ID", "vw"), entries)


A = matrix([(0, 1, 2.0), (1, 2, 3.0), (0, 2, 1.0), (3, 0, 4.0)])
C = vector([(0, 1.0), (1, 2.0), (2, 3.0)])


def as_map(relation):
    if relation.schema.arity == 3:
        return {(f, t): pytest.approx(w) for f, t, w in relation.rows}
    return {i: pytest.approx(w) for i, w in relation.rows}


class TestMVJoin:
    @pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, MAX_TIMES,
                                          MIN_TIMES],
                             ids=lambda s: s.name)
    @pytest.mark.parametrize("transpose", [False, True])
    def test_agrees_with_pure(self, semiring, transpose):
        pure = mv_join(A, C, semiring, transpose=transpose)
        fast = mv_join_accel(A, C, semiring, transpose=transpose)
        assert as_map(fast) == as_map(pure)

    def test_missing_vector_entries_skipped(self):
        sparse_vector = vector([(2, 5.0)])
        pure = mv_join(A, sparse_vector, MIN_PLUS)
        fast = mv_join_accel(A, sparse_vector, MIN_PLUS)
        assert as_map(fast) == as_map(pure)


class TestMMJoin:
    def test_plus_times(self):
        assert as_map(mm_join_accel(A, A, PLUS_TIMES)) == \
            as_map(mm_join(A, A, PLUS_TIMES))

    def test_min_plus(self):
        assert as_map(mm_join_accel(A, A, MIN_PLUS)) == \
            as_map(mm_join(A, A, MIN_PLUS))

    def test_unsupported_semiring(self):
        with pytest.raises(NotImplementedError):
            mm_join_accel(A, A, MAX_TIMES)


class TestCompiledMatrix:
    def test_repeated_multiplication_matches_pure(self):
        from repro.core.accel import CompiledMatrix

        compiled = CompiledMatrix(A, transpose=True)
        current = C
        pure_current = C
        for _ in range(4):
            current = compiled.mv(current, PLUS_TIMES)
            pure_current = mv_join(A, pure_current, PLUS_TIMES,
                                   transpose=True)
            assert as_map(current) == as_map(pure_current)

    def test_pagerank_accel_matches_reference(self):
        from repro.core.algorithms import pagerank
        from repro.datasets import preferential_attachment

        graph = preferential_attachment(60, 4.0, directed=True, seed=11)
        fast = pagerank.run_accel(graph).values
        slow = pagerank.run_reference(graph).values
        for node in graph.nodes():
            assert fast[node] == pytest.approx(slow[node], abs=1e-12)

    def test_edgeless_graph(self):
        from repro.core.algorithms import pagerank
        from repro.graphsystems.graph import Graph

        graph = Graph()
        graph.add_node(1)
        assert pagerank.run_accel(graph).values == {1: 0.0}

    def test_vector_entries_outside_matrix_ignored(self):
        from repro.core.accel import CompiledMatrix

        compiled = CompiledMatrix(A)
        stray = vector([(0, 1.0), (99, 5.0)])
        pure = mv_join(A, stray, PLUS_TIMES)
        assert as_map(compiled.mv(stray, PLUS_TIMES)) == as_map(pure)


entries = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.floats(0.1, 10, allow_nan=False), min_size=1, max_size=15)
vec_entries = st.dictionaries(st.integers(0, 6),
                              st.floats(0.1, 10, allow_nan=False),
                              min_size=1, max_size=7)


@given(entries, vec_entries)
@settings(max_examples=30, deadline=None)
def test_mv_property_plus_times(matrix_entries, vector_entries):
    a = matrix([(f, t, w) for (f, t), w in sorted(matrix_entries.items())])
    c = vector(sorted(vector_entries.items()))
    assert as_map(mv_join_accel(a, c, PLUS_TIMES)) == \
        as_map(mv_join(a, c, PLUS_TIMES))


@given(entries, vec_entries)
@settings(max_examples=30, deadline=None)
def test_mv_property_min_plus_transpose(matrix_entries, vector_entries):
    a = matrix([(f, t, w) for (f, t), w in sorted(matrix_entries.items())])
    c = vector(sorted(vector_entries.items()))
    assert as_map(mv_join_accel(a, c, MIN_PLUS, transpose=True)) == \
        as_map(mv_join(a, c, MIN_PLUS, transpose=True))


@given(entries, entries)
@settings(max_examples=20, deadline=None)
def test_mm_property_both_semirings(ea, eb):
    a = matrix([(f, t, w) for (f, t), w in sorted(ea.items())])
    b = matrix([(f, t, w) for (f, t), w in sorted(eb.items())])
    for semiring in (PLUS_TIMES, MIN_PLUS):
        assert as_map(mm_join_accel(a, b, semiring)) == \
            as_map(mm_join(a, b, semiring))
