"""Reproducer: which conflicting key a UNION BY UPDATE delta was blamed
for depended on the join order (``repro fuzz --seed 7``, scenario 7000089).

Iteration 1's delta here conflicts on *two* keys: node 1 is reached with
``4.75`` and ``5.5``, node 4 with ``3.0`` and ``5.5``.
:func:`repro.relational.strategies.consolidate_delta` sorted the pair it
reported but raised at the first conflict in delta row order, so
``optimizer="off"`` blamed key 1 and ``optimizer="cost"`` (other join
order, other row order) blamed key 4 — same program, two error texts.
It now scans the whole delta and reports the smallest conflicting key
with its two smallest rows.
"""

from repro.check.replay import assert_matrix_agreement

TABLES = (
    ("E", (("F", "int"), ("T", "int"), ("ew", "double")),
     ((0, 4, 3.0), (1, 1, 2.75), (1, 2, 2.25), (2, 1, 2.5), (4, 4, 2.5))),
    ("V", (("ID", "int"), ("vw", "double")), ()),
)

SQL = (
    "with t(ID, val) as ("
    " (select 0 as ID, 0.0 as val from E where F = 0 group by F"
    "  union all"
    "  select 1 as ID, 0.0 as val from E where F = 1 group by F)"
    " union by update ID"
    " (select E.T as ID, t.val + E.ew as val"
    "  from t join E on E.F = t.ID)"
    " maxrecursion 2"
    ") select ID, val from t"
)


def test_conflict_on_two_keys_blames_the_same_one_everywhere():
    outcome = assert_matrix_agreement(TABLES, SQL, recursive=True)
    assert outcome[:2] == ("error", "ConstraintError")
    assert "conflicting rows for key (1,): (1, 4.75) vs (1, 5.5)" \
        in outcome[2]
