"""The SQL-ish value domain used by the engine.

The engine stores plain Python values in tuples.  This module centralises the
conventions:

* ``NULL`` is represented by Python ``None`` and follows three-valued logic
  (3VL) in comparisons and boolean connectives (see :mod:`expressions`).
* The supported column types are ``INTEGER``, ``DOUBLE``, ``TEXT`` and
  ``BOOLEAN``.  Types are advisory: they drive coercion on insert and are
  reported in schemas, but the executor is dynamically typed like SQLite.
* ``INFINITY`` is the engine's stand-in for the unreachable distance used by
  shortest-path algorithms (the paper initialises Bellman-Ford node weights
  to infinity).
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Any

#: Positive infinity, used as the "unreachable" distance.
INFINITY = math.inf


class SqlType(enum.Enum):
    """Column types understood by the engine."""

    INTEGER = "integer"
    DOUBLE = "double precision"
    TEXT = "text"
    BOOLEAN = "boolean"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_COERCERS = {
    SqlType.INTEGER: int,
    SqlType.DOUBLE: float,
    SqlType.TEXT: str,
    SqlType.BOOLEAN: bool,
}


def coerce(value: Any, sql_type: SqlType) -> Any:
    """Coerce *value* to *sql_type*, passing NULL (``None``) through.

    Floats representing infinity are preserved for ``DOUBLE`` and rejected
    for ``INTEGER``.  Exact-type fast paths keep the common already-typed
    case free of the enum-keyed dict probe — this runs once per value on
    every table write.
    """
    if value is None:
        return None
    if sql_type is SqlType.DOUBLE:
        if type(value) is float:
            return value
        if isinstance(value, (int, float)):
            return float(value)
    elif sql_type is SqlType.INTEGER:
        if type(value) is int:
            return value
        if isinstance(value, float) and math.isinf(value):
            raise ValueError("cannot store infinity in an INTEGER column")
    elif sql_type is SqlType.TEXT:
        if type(value) is str:
            return value
    elif sql_type is SqlType.BOOLEAN:
        if type(value) is bool:
            return value
    return _COERCERS[sql_type](value)


def _float_to_int(value: float) -> int:
    if math.isinf(value):
        raise ValueError("cannot store infinity in an INTEGER column")
    return int(value)


#: Exact Python type per SQL type whose values pass ``coerce`` unchanged.
_EXACT_TYPES = {
    SqlType.INTEGER: "int",
    SqlType.DOUBLE: "float",
    SqlType.TEXT: "str",
    SqlType.BOOLEAN: "bool",
}


def make_row_coercer(sql_types) -> Any:
    """Compile a column-type list into a row → coerced-tuple function.

    Table writes run this once per row, so the generated function inlines
    the exact-type fast path per column (a ``type(v) is int`` test instead
    of a :func:`coerce` call) and only falls back to :func:`coerce` for
    NULLs and mistyped values.  Callers validate arity first — short rows
    raise ``IndexError`` here, not truncate.  The function is pure, so
    each type signature is compiled once and shared by every table with
    it (a with+ statement creates its temporary tables afresh).
    """
    return _compile_row_coercer(tuple(sql_types))


@functools.lru_cache(maxsize=256)
def _compile_row_coercer(types: tuple[SqlType, ...]) -> Any:
    if not types:
        return lambda row: ()
    loads = "; ".join(f"v{i} = row[{i}]" for i in range(len(types)))
    cells = []
    for i, t in enumerate(types):
        cell = (f"v{i} if type(v{i}) is {_EXACT_TYPES[t]}"
                f" else _coerce(v{i}, _t{i})")
        if t is SqlType.DOUBLE:
            # ints are common in DOUBLE columns (e.g. integer literals in
            # arithmetic); widen inline rather than through the fallback.
            cell = (f"v{i} if type(v{i}) is float"
                    f" else (float(v{i}) if type(v{i}) is int"
                    f" else _coerce(v{i}, _t{i}))")
        elif t is SqlType.INTEGER:
            # floats are equally common in INTEGER columns (any arithmetic
            # with a DOUBLE operand widens); narrow through the dedicated
            # helper, which keeps the infinity check.
            cell = (f"v{i} if type(v{i}) is int"
                    f" else (_f2i(v{i}) if type(v{i}) is float"
                    f" else _coerce(v{i}, _t{i}))")
        cells.append(cell)
    cells = ", ".join(cells)
    trailing = "," if len(types) == 1 else ""
    source = (f"def _row_coercer(row):\n"
              f"    {loads}\n"
              f"    return ({cells}{trailing})\n")
    namespace: dict[str, Any] = {"_coerce": coerce, "_f2i": _float_to_int}
    namespace.update({f"_t{i}": t for i, t in enumerate(types)})
    exec(source, namespace)
    return namespace["_row_coercer"]


def infer_type(value: Any) -> SqlType:
    """Infer the closest :class:`SqlType` for a Python value."""
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.DOUBLE
    return SqlType.TEXT


def is_null(value: Any) -> bool:
    """True when *value* is SQL NULL."""
    return value is None


def sql_repr(value: Any) -> str:
    """Render a value the way it would appear in SQL text."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float) and math.isinf(value):
        return "'infinity'" if value > 0 else "'-infinity'"
    return repr(value)
