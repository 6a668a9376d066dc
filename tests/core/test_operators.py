"""The four operations: definitions, basic-op equivalence, independence
properties, and agreement with numpy linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operators import (
    anti_join,
    anti_join_basic,
    mm_join,
    mm_join_basic,
    mv_join,
    mv_join_basic,
    transpose,
    union_by_update,
    union_by_update_basic,
)
from repro.core.semiring import BOOLEAN, MAX_TIMES, MIN_PLUS, PLUS_TIMES
from repro.relational.errors import ExecutionError
from repro.relational.relation import Relation


def matrix_relation(entries):
    return Relation.from_pairs(("F", "T", "ew"), entries)


def vector_relation(entries):
    return Relation.from_pairs(("ID", "vw"), entries)


A = matrix_relation([(0, 1, 2.0), (1, 2, 3.0), (0, 2, 1.0)])
C = vector_relation([(0, 1.0), (1, 2.0), (2, 3.0)])


class TestMMJoin:
    def test_plus_times_matches_numpy(self):
        n = 3
        dense = np.zeros((n, n))
        for f, t, w in A.rows:
            dense[f, t] = w
        product = dense @ dense
        got = {(f, t): w for f, t, w in mm_join(A, A, PLUS_TIMES).rows}
        for i in range(n):
            for j in range(n):
                assert got.get((i, j), 0.0) == pytest.approx(product[i, j])

    def test_min_plus_shortest_two_hop(self):
        got = {(f, t): w for f, t, w in mm_join(A, A, MIN_PLUS).rows}
        assert got[(0, 2)] == 5.0  # 0→1→2 costs 2+3

    def test_basic_ops_equivalence(self):
        fast = sorted(mm_join(A, A, PLUS_TIMES).rows)
        basic = sorted(mm_join_basic(A, A, PLUS_TIMES).rows)
        assert fast == basic


class TestMVJoin:
    def test_forward_matches_numpy(self):
        dense = np.zeros((3, 3))
        for f, t, w in A.rows:
            dense[f, t] = w
        vec = np.array([1.0, 2.0, 3.0])
        expected = dense @ vec
        got = mv_join(A, C, PLUS_TIMES).to_dict()
        for i in range(3):
            assert got.get(i, 0.0) == pytest.approx(expected[i])

    def test_transpose_matches_numpy(self):
        dense = np.zeros((3, 3))
        for f, t, w in A.rows:
            dense[f, t] = w
        expected = dense.T @ np.array([1.0, 2.0, 3.0])
        got = mv_join(A, C, PLUS_TIMES, transpose=True).to_dict()
        for i in range(3):
            assert got.get(i, 0.0) == pytest.approx(expected[i])

    def test_basic_ops_equivalence(self):
        assert sorted(mv_join(A, C, PLUS_TIMES).rows) == \
            sorted(mv_join_basic(A, C, PLUS_TIMES).rows)

    def test_mv_join_is_mm_join_with_unit_column(self):
        """The paper: 'MM-join is similar to MV-join' — a vector is a
        one-column matrix."""
        column = matrix_relation([(i, 0, w) for i, w in C.rows])
        via_mm = {(f, w) for f, _, w in mm_join(A, column, PLUS_TIMES).rows}
        via_mv = set(mv_join(A, C, PLUS_TIMES).rows)
        assert via_mm == via_mv


class TestAntiJoin:
    def test_complements_semi_join(self):
        s = vector_relation([(1, 0.0)])
        result = anti_join(C, s, ["ID"], ["ID"])
        assert {r[0] for r in result.rows} == {0, 2}

    def test_matches_paper_definition(self):
        s = vector_relation([(1, 0.0), (5, 0.0)])
        assert anti_join(C, s, ["ID"], ["ID"]).as_set() == \
            anti_join_basic(C, s, ["ID"], ["ID"]).as_set()

    def test_property_never_contains_matching_tuples(self):
        """The independence property the paper cites: R ⋉̄ S contains no
        tuple matching S."""
        s = vector_relation([(0, 0.0), (2, 9.0)])
        result = anti_join(C, s, ["ID"], ["ID"])
        s_keys = {r[0] for r in s.rows}
        assert all(r[0] not in s_keys for r in result.rows)


class TestUnionByUpdate:
    def test_update_insert_keep(self):
        delta = vector_relation([(1, 20.0), (9, 90.0)])
        result = union_by_update(C, delta, ["ID"]).to_dict()
        assert result == {0: 1.0, 1: 20.0, 2: 3.0, 9: 90.0}

    def test_property_contains_all_of_s(self):
        """The paper's independence property: R ⊎ S must contain S."""
        delta = vector_relation([(1, 20.0), (9, 90.0)])
        result = union_by_update(C, delta, ["ID"])
        assert set(delta.rows) <= result.as_set()

    def test_multiple_s_matches_rejected(self):
        delta = vector_relation([(1, 20.0), (1, 30.0)])
        with pytest.raises(ExecutionError):
            union_by_update(C, delta, ["ID"])

    def test_keyless_is_replacement(self):
        delta = vector_relation([(7, 70.0)])
        assert union_by_update(C, delta, []) is delta

    def test_matches_basic_ops_definition(self):
        delta = vector_relation([(1, 20.0), (9, 90.0)])
        assert union_by_update(C, delta, ["ID"]).as_set() == \
            union_by_update_basic(C, delta, ["ID"]).as_set()


class TestTranspose:
    def test_double_transpose_identity(self):
        assert transpose(transpose(A)) == A

    def test_swaps_endpoints(self):
        assert (1, 0, 2.0) in transpose(A).rows


# -- property-based -------------------------------------------------------------

matrix_entries = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.floats(0.1, 10, allow_nan=False), max_size=12)
vector_entries = st.dictionaries(st.integers(0, 4),
                                 st.floats(0.1, 10, allow_nan=False),
                                 max_size=5)


@given(matrix_entries, matrix_entries)
@settings(max_examples=40)
def test_mm_join_equiv_basic_property(entries_a, entries_b):
    a = matrix_relation([(f, t, w) for (f, t), w in sorted(entries_a.items())])
    b = matrix_relation([(f, t, w) for (f, t), w in sorted(entries_b.items())])
    fast = {(f, t): w for f, t, w in mm_join(a, b, PLUS_TIMES).rows}
    basic = {(f, t): w for f, t, w in mm_join_basic(a, b, PLUS_TIMES).rows}
    assert set(fast) == set(basic)
    for key in fast:
        assert fast[key] == pytest.approx(basic[key])


@given(matrix_entries, vector_entries)
@settings(max_examples=40)
def test_mv_join_against_numpy_property(entries_a, entries_c):
    a = matrix_relation([(f, t, w) for (f, t), w in sorted(entries_a.items())])
    c = vector_relation(sorted(entries_c.items()))
    dense = np.zeros((5, 5))
    for f, t, w in a.rows:
        dense[f, t] = w
    vec = np.zeros(5)
    for i, w in c.rows:
        vec[i] = w
    expected = dense @ vec
    got = mv_join(a, c, PLUS_TIMES).to_dict()
    for i in range(5):
        assert got.get(i, 0.0) == pytest.approx(expected[i])


@given(matrix_entries, matrix_entries, matrix_entries)
@settings(max_examples=25, deadline=None)
def test_mm_join_associativity(ea, eb, ec):
    """(A·B)·C == A·(B·C) under plus-times — semiring associativity."""
    a = matrix_relation([(f, t, w) for (f, t), w in sorted(ea.items())])
    b = matrix_relation([(f, t, w) for (f, t), w in sorted(eb.items())])
    c = matrix_relation([(f, t, w) for (f, t), w in sorted(ec.items())])
    left = {(f, t): w for f, t, w in
            mm_join(mm_join(a, b, PLUS_TIMES), c, PLUS_TIMES).rows}
    right = {(f, t): w for f, t, w in
             mm_join(a, mm_join(b, c, PLUS_TIMES), PLUS_TIMES).rows}
    assert set(left) == set(right)
    for key in left:
        assert left[key] == pytest.approx(right[key])


@given(vector_entries, vector_entries)
def test_union_by_update_matches_dict_merge(base, delta):
    """R ⊎ S on a keyed vector is exactly dict merge {**R, **S}."""
    r = vector_relation(sorted(base.items()))
    s = vector_relation(sorted(delta.items()))
    assert union_by_update(r, s, ["ID"]).to_dict() == {**base, **delta}


@given(matrix_entries)
def test_boolean_mm_join_is_path_composition(entries):
    a = matrix_relation([(f, t, True) for (f, t) in sorted(entries)])
    two_hop = {(f, t) for f, t, _ in mm_join(a, a, BOOLEAN).rows}
    edges = {(f, t) for f, t, _ in a.rows}
    expected = {(f, t2) for f, t in edges for f2, t2 in edges if t == f2}
    assert two_hop == expected
