"""Reproducer: the reference executor was the odd one out on ``-0.0``.

The tuple executor folded a group with ``sum(values)``, which starts from
the int ``0`` — and ``0 + -0.0`` is ``0.0`` — while every batch and array
loop seeds its accumulator with the group's first value and keeps
``-0.0``.  Equal sums, different sign bits, so ``executor="tuple"`` (the
differential oracle) disagreed with everything it is the oracle for.
:func:`repro.relational.relation._finish_aggregate` now seeds the fold
with the first value too.

Row multisets cannot see a zero's sign (``-0.0 == 0.0``), so this
compares sign bits itself across the whole configuration matrix.
"""

import math

from repro.check.oracles import default_matrix
from repro.relational.relation import Relation

ROWS = [(1, -0.0), (2, -0.0), (2, -0.0), (3, 0.0), (3, -0.0), (4, -0.0),
        (4, 0.0)]
EXPECTED = [(1, -1.0, -1.0), (2, -1.0, -1.0), (3, 1.0, 1.0), (4, 1.0, 1.0)]


def signs(engine, sql):
    return sorted((key,) + tuple(math.copysign(1.0, v) for v in values)
                  for key, *values in engine.execute(sql).rows)


def test_sum_and_avg_keep_a_negative_zero_in_every_configuration():
    for config in default_matrix():
        engine = config.build_engine()
        engine.database.register("T", Relation.from_pairs(("k", "v"), ROWS))
        both = signs(engine, "select k, sum(v) as s, avg(v) as a"
                             " from T group by k")
        assert both == EXPECTED, config.label()
        alone = signs(engine, "select k, sum(v) as s from T group by k")
        assert alone == [row[:2] for row in EXPECTED], config.label()
