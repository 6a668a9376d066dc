"""Value-domain conventions: NULL, coercion, infinity, SQL rendering."""

import math

import pytest

from repro.relational.types import (
    INFINITY,
    SqlType,
    coerce,
    infer_type,
    is_null,
    make_row_coercer,
    sql_repr,
)

INT, DOUBLE, TEXT = SqlType.INTEGER, SqlType.DOUBLE, SqlType.TEXT


class TestCoerce:
    def test_null_passes_through_every_type(self):
        for sql_type in SqlType:
            assert coerce(None, sql_type) is None

    def test_integer_from_float(self):
        assert coerce(3.0, SqlType.INTEGER) == 3

    def test_double_from_int_is_float(self):
        value = coerce(3, SqlType.DOUBLE)
        assert value == 3.0 and isinstance(value, float)

    def test_infinity_survives_double(self):
        assert coerce(INFINITY, SqlType.DOUBLE) == math.inf

    def test_infinity_rejected_for_integer(self):
        with pytest.raises(ValueError):
            coerce(INFINITY, SqlType.INTEGER)

    def test_text_coercion(self):
        assert coerce(42, SqlType.TEXT) == "42"

    def test_boolean_coercion(self):
        assert coerce(1, SqlType.BOOLEAN) is True
        assert coerce(0, SqlType.BOOLEAN) is False


class TestRowCoercer:
    def test_coerces_per_column(self):
        coerce_row = make_row_coercer([INT, DOUBLE, TEXT])
        row = coerce_row((2.0, 3, None))
        assert row == (2, 3.0, None)
        assert list(map(type, row)) == [int, float, type(None)]

    def test_one_function_per_type_signature(self):
        """Compiled once per signature, however the types are passed."""
        first = make_row_coercer([INT, DOUBLE])
        assert make_row_coercer((INT, DOUBLE)) is first
        assert make_row_coercer(t for t in (INT, DOUBLE)) is first
        assert make_row_coercer([DOUBLE, INT]) is not first
        assert make_row_coercer([INT]) is not first
        assert make_row_coercer([]) is make_row_coercer(())


class TestInference:
    def test_bool_before_int(self):
        # bool is a subclass of int; inference must not call it INTEGER
        assert infer_type(True) is SqlType.BOOLEAN

    def test_int(self):
        assert infer_type(7) is SqlType.INTEGER

    def test_float(self):
        assert infer_type(7.5) is SqlType.DOUBLE

    def test_string(self):
        assert infer_type("x") is SqlType.TEXT


class TestRendering:
    def test_null(self):
        assert sql_repr(None) == "NULL"

    def test_booleans(self):
        assert sql_repr(True) == "TRUE"
        assert sql_repr(False) == "FALSE"

    def test_string_escaping(self):
        assert sql_repr("it's") == "'it''s'"

    def test_infinity(self):
        assert sql_repr(math.inf) == "'infinity'"
        assert sql_repr(-math.inf) == "'-infinity'"

    def test_is_null(self):
        assert is_null(None)
        assert not is_null(0)
