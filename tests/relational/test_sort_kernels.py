"""The one sort under the array kernels' indexes, distinct and grouping.

``stable_order`` must be numpy's stable argsort — every CSR and sorted
index, every first-row choice and every group order depends on it — and
``unique_runs`` must be ``np.unique`` with its index, inverse and counts.
The one-search ``SortedIndex`` probe over distinct keys must answer as
the two-search one, on built and on patched indexes, whose "distinct"
flag the patches keep.  A scan of the source keeps the slow primitives
out of the kernels.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.relational
from repro.relational.physical.blocks import (ArrayVector, SortedIndex,
                                              csr_index, pack_keys,
                                              sorted_index, stable_order,
                                              unique_runs)

INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def frozen(values):
    keys = np.array(values, dtype=np.int64)
    keys.flags.writeable = False
    return keys


def check(keys):
    before = keys.copy()
    order = stable_order(keys)
    expected = keys.argsort(kind="stable")
    assert order.dtype == expected.dtype
    np.testing.assert_array_equal(order, expected)
    runs = unique_runs(keys)
    reference = np.unique(keys, return_index=True, return_inverse=True,
                          return_counts=True)
    for got, want in zip(runs, reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(keys, before)


def spanning(span):
    """Keys spread over ``low .. low + span`` (both ends present)."""
    return st.tuples(st.integers(INT64_MIN, INT64_MAX - span),
                     st.lists(st.integers(0, span), max_size=40)).map(
        lambda drawn: [drawn[0], drawn[0] + span]
        + [drawn[0] + offset for offset in drawn[1]])


key_lists = st.one_of(
    st.lists(st.integers(-3, 3), max_size=80),
    st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=80),
    st.lists(st.integers(INT64_MIN, INT64_MAX), max_size=40),
    st.sampled_from([0, 1, 2 ** 40, 2 ** 56, 2 ** 57 - 1, 2 ** 57,
                     2 ** 62, 2 ** 64 - 1]).flatmap(spanning))


@settings(max_examples=400, deadline=None)
@given(key_lists, st.randoms(use_true_random=False))
def test_stable_order_and_unique_runs_are_numpys(values, random):
    check(frozen(sorted(values)))
    random.shuffle(values)
    check(frozen(values))


@pytest.mark.parametrize("values", [
    [], [7], [INT64_MIN], [5] * 9, [-4, -9, -4, -1, -9],
    [INT64_MIN, INT64_MAX, 0, INT64_MIN, INT64_MAX],
    [INT64_MAX, INT64_MAX - 1, INT64_MAX], [INT64_MIN + 1, INT64_MIN]])
def test_edge_inputs(values):
    check(frozen(values))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 16, 17, 1000, 1025])
@pytest.mark.parametrize("over", [-1, 0, 1])
def test_spans_around_the_fallback_boundary(n, over):
    """Keys spanning just inside, at and past ``2 ** (62 - bits)``: the
    widest span the tagged sort takes, and the first it leaves to the
    stable argsort."""
    span = 2 ** (62 - (n - 1).bit_length()) + over
    rng = np.random.default_rng(n)
    for low in (INT64_MIN, -span // 2, INT64_MAX - span):
        offsets = rng.integers(0, span, n, endpoint=True)
        offsets[:2] = 0, span
        values = [low + int(offset) for offset in offsets]
        check(frozen(values))
        check(frozen(values[::-1]))


def two_search(index, keys):
    """``index.probe(keys)`` with the runs found by two searches."""
    return SortedIndex(index.order, index.keys, index.packing,
                       False).probe(keys)


def vectors(rows):
    return [ArrayVector(np.array(column, dtype=np.int64))
            for column in zip(*rows)]


pairs = st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 5)),
                 min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(pairs, pairs, st.lists(st.booleans(), min_size=60, max_size=60),
       st.lists(st.tuples(st.integers(-2, 9), st.integers(-5, 7)),
                max_size=40))
def test_one_search_probe_is_the_two_search_probe(rows, more, keep, needles):
    built = sorted_index(vectors(rows))
    kept = built.without(np.array(keep[:len(rows)]))
    # A key outside the packing declines an append (None).  The flag is
    # exact on a build and on its appends; ``without`` keeps a False one
    # even when it removes every repeat.
    patched = [(built, True), (kept, False),
               (built.appended(vectors(more), len(rows)), True),
               (kept.appended(vectors(more), len(kept)), False)]
    probe = vectors(needles) if needles \
        else [ArrayVector(np.zeros(0, dtype=np.int64))] * 2
    for index, exact in patched:
        if index is None:
            continue
        distinct = len(set(index.keys.tolist())) == len(index.keys)
        assert index.distinct == distinct if exact \
            else distinct or not index.distinct
        keys = pack_keys(probe, index.packing)[0]
        expected = two_search(index, keys)
        got = index.probe(keys)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 40), min_size=1, max_size=60),
       st.booleans())
def test_csr_index_over_distinct_keys_is_the_sorted_one(values, distinct):
    """A CSR index holds the stable order, and ``locate`` finds each row
    of a distinct key column (and declines a repeated one)."""
    if distinct:
        values = list(dict.fromkeys(values))
    keys = np.array(values, dtype=np.int64)
    index = csr_index(ArrayVector(keys))
    np.testing.assert_array_equal(index.order, keys.argsort(kind="stable"))
    located = index.locate(keys)
    if len(set(values)) < len(values):
        assert located is None
    else:
        np.testing.assert_array_equal(located, np.arange(len(keys)))


# -- the kernels stay on the one sort -----------------------------------------

#: (file under the package, enclosing function) allowed a stable argsort
#: or an ``np.unique`` returning index, inverse or counts: the tagged
#: sort's own fallback, and ANALYZE over a float column (whose values are
#: not int64 keys).  A plain ``np.unique`` (the values alone) is already
#: one sort and an adjacent compare.
ALLOWED = {("physical/blocks.py", "stable_order"),
           ("statistics.py", "_vector_column_statistics")}
NUMPY_NAMES = {"np", "_np", "numpy"}
RETURNS = {"return_index", "return_inverse", "return_counts"}


def slow_sorts(tree):
    """``(function, line)`` of each ``np.unique(...)`` call asking for
    an index, inverse or counts and each call passing ``kind="stable"``
    in *tree*."""
    hits = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            unique = isinstance(func, ast.Attribute) \
                and func.attr == "unique" \
                and isinstance(func.value, ast.Name) \
                and func.value.id in NUMPY_NAMES \
                and any(keyword.arg in RETURNS for keyword in node.keywords)
            stable = any(keyword.arg == "kind"
                         and isinstance(keyword.value, ast.Constant)
                         and keyword.value.value == "stable"
                         for keyword in node.keywords)
            if unique or stable:
                hits.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return hits


def test_no_stable_argsort_or_np_unique_outside_the_allow_list():
    root = pathlib.Path(repro.relational.__file__).parent
    found, outside = set(), []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        for function, line in slow_sorts(ast.parse(path.read_text())):
            found.add((name, function))
            if (name, function) not in ALLOWED:
                outside.append(f"{name}:{line} in {function}")
    assert not outside, "route these through blocks.stable_order / " \
        "unique_runs: " + ", ".join(outside)
    # Each allowance still names a real call: a stale one hides nothing.
    assert found >= ALLOWED


def test_the_guard_sees_both_forms():
    tree = ast.parse("def f(a):\n    a.argsort(kind='stable')\n"
                     "def g(a):\n    return _np.unique(a, return_inverse=1)\n"
                     "def h(a):\n    return np.unique(a)\n")
    assert slow_sorts(tree) == [("f", 2), ("g", 4)]
