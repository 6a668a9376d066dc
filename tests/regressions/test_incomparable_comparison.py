"""Reproducer: comparing incomparable values escaped as a bare ``TypeError``.

Found by ``repro fuzz`` (seeds 14 and 15): a HAVING clause compared
``max``/``min`` of a TEXT column with a numeric literal.  Comparison
operators are the raw Python ones, so ``'x' < 1`` raised ``TypeError``
from inside the plan, and every configuration — the tuple/rows oracle
included — reported a crash instead of an engine error.

The engine now turns a comparison ``TypeError`` into one
:class:`~repro.relational.errors.ExecutionError` at the statement
boundary (no per-row ``try`` in the compiled loops), with a message that
names no operand, so every configuration agrees on it.
"""

from repro.check.replay import assert_matrix_agreement

MESSAGE = "cannot compare values of incomparable types"

TABLES = (
    ("T0", (("k0", "int"), ("c0", "text")), ()),
    ("T1", (("k0", "int"), ("c0", "text"), ("c1", "text")),
     ((9, "", "x"),)),
)


def assert_incomparable(sql: str) -> None:
    outcome = assert_matrix_agreement(TABLES, sql)
    assert outcome == ("error", "ExecutionError", MESSAGE)


def test_having_max_text_below_int_is_an_engine_error():
    # The minimized fuzz seed 14 reproducer.
    assert_incomparable(
        "select count(*) as a1 from T0 q0 full join T1 q2"
        " on q0.k0 = q2.k0 having (max(q2.c1) < 1)")


def test_having_min_text_at_least_int_is_an_engine_error():
    # The shape of fuzz seed 15's reproducer.
    assert_incomparable(
        "select min(q0.c1) as a1 from T1 q0 having (min(q0.c1) >= 2)")


def test_where_and_join_comparisons_are_engine_errors_too():
    assert_incomparable("select k0 from T1 where c1 < 1")
    assert_incomparable(
        "select count(*) as n from T1 q0 join T1 q1 on q0.c1 < q1.k0")


def test_comparable_having_still_returns_rows():
    outcome = assert_matrix_agreement(
        TABLES, "select max(c1) as m from T1 having (max(c1) < 'y')")
    assert outcome[0] == "rows"
    assert sorted(outcome[2].elements()) == [("x",)]
