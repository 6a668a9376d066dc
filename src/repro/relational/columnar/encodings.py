"""Column codecs: typed vectors, dictionaries, RLE and delta/FOR.

A sealed :class:`~repro.relational.columnar.store.ColumnBlock` holds one
encoded vector per column.  Every codec round-trips ``encode → decode``
to the exact input values (``None`` included) — the storage layer trades
space, never semantics.  :func:`encode_column` inspects the values and
picks the cheapest applicable encoding:

* runs of repeated values   → :class:`RLEColumn`
* int64s in a narrow range  → :class:`ForColumn` (frame-of-reference)
* int64s with small strides → :class:`DeltaColumn`
* any int64s                → :class:`IntColumn` (``array('q')``)
* floats (no NaN)           → :class:`FloatColumn` (``array('d')``)
* few distinct values       → :class:`DictionaryColumn`
* anything else             → :class:`PlainColumn`

NULLs ride in a little-endian bit map next to the typed array (the slot
under a NULL bit holds a zero and is ignored on decode).  NaN floats are
left to :class:`PlainColumn`/:class:`DictionaryColumn`, which keep the
original objects: re-materialising a NaN through ``array('d')`` would
produce a *different* object that compares unequal to every copy of
itself, breaking bag-equality with the row-storage engine.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Any, Sequence

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Smallest signed array typecode whose range covers ``limit`` magnitudes.
_NARROW_CODES = (("b", 1 << 7), ("h", 1 << 15), ("l", 1 << 31))


def _narrow_typecode(lo: int, hi: int) -> str | None:
    for code, bound in _NARROW_CODES:
        if -bound <= lo and hi < bound:
            return code
    if _INT64_MIN <= lo and hi <= _INT64_MAX:
        return "q"
    return None


def pack_nulls(values: Sequence[Any]) -> bytes | None:
    """Little-endian null bitmap (bit i set ⇔ ``values[i] is None``)."""
    mask = 0
    for pos, value in enumerate(values):
        if value is None:
            mask |= 1 << pos
    if not mask:
        return None
    return mask.to_bytes((len(values) + 7) // 8, "little")


def unpack_nulls(bitmap: bytes, length: int) -> list[int]:
    """Positions of set bits in a :func:`pack_nulls` bitmap."""
    mask = int.from_bytes(bitmap, "little")
    positions = []
    pos = 0
    while mask:
        if mask & 1:
            positions.append(pos)
        mask >>= 1
        pos += 1
    return positions


def _apply_nulls(decoded: list, nulls: bytes | None) -> list:
    if nulls:
        for pos in unpack_nulls(nulls, len(decoded)):
            decoded[pos] = None
    return decoded


class ColumnCodec:
    """One encoded column vector of a sealed block."""

    name = "codec"

    def __len__(self) -> int:
        raise NotImplementedError

    def decode(self) -> list:
        """Materialise the original Python values, NULLs included."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        """Resident bytes of the encoded form (caches excluded)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.name} n={len(self)} bytes={self.size_bytes()}>"


class PlainColumn(ColumnCodec):
    """Uncompressed fallback: the values list itself."""

    name = "plain"
    __slots__ = ("values",)

    def __init__(self, values: Sequence[Any]):
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)

    def decode(self) -> list:
        return list(self.values)

    def size_bytes(self) -> int:
        return sys.getsizeof(self.values) + sum(
            map(sys.getsizeof, self.values))


class IntColumn(ColumnCodec):
    """64-bit integer vector with an optional null bitmap."""

    name = "int64"
    __slots__ = ("data", "nulls")

    def __init__(self, data: array, nulls: bytes | None):
        self.data = data
        self.nulls = nulls

    def __len__(self) -> int:
        return len(self.data)

    def decode(self) -> list:
        return _apply_nulls(self.data.tolist(), self.nulls)

    def size_bytes(self) -> int:
        return sys.getsizeof(self.data) + sys.getsizeof(self.nulls)


class FloatColumn(ColumnCodec):
    """IEEE-754 double vector with an optional null bitmap."""

    name = "float64"
    __slots__ = ("data", "nulls")

    def __init__(self, data: array, nulls: bytes | None):
        self.data = data
        self.nulls = nulls

    def __len__(self) -> int:
        return len(self.data)

    def decode(self) -> list:
        return _apply_nulls(self.data.tolist(), self.nulls)

    def size_bytes(self) -> int:
        return sys.getsizeof(self.data) + sys.getsizeof(self.nulls)


class ForColumn(ColumnCodec):
    """Frame-of-reference: narrow offsets from the block minimum."""

    name = "for"
    __slots__ = ("base", "offsets", "nulls")

    def __init__(self, base: int, offsets: array, nulls: bytes | None):
        self.base = base
        self.offsets = offsets
        self.nulls = nulls

    def __len__(self) -> int:
        return len(self.offsets)

    def decode(self) -> list:
        base = self.base
        return _apply_nulls([base + off for off in self.offsets], self.nulls)

    def size_bytes(self) -> int:
        return sys.getsizeof(self.offsets) + sys.getsizeof(self.nulls) + 28


class DeltaColumn(ColumnCodec):
    """First value plus narrow consecutive differences (sorted-ish ints)."""

    name = "delta"
    __slots__ = ("first", "deltas")

    def __init__(self, first: int, deltas: array):
        self.first = first
        self.deltas = deltas

    def __len__(self) -> int:
        return len(self.deltas) + 1

    def decode(self) -> list:
        out = [self.first]
        value = self.first
        for delta in self.deltas:
            value += delta
            out.append(value)
        return out

    def size_bytes(self) -> int:
        return sys.getsizeof(self.deltas) + 28


class RLEColumn(ColumnCodec):
    """Run-length encoding: (value, run length) pairs, any value type."""

    name = "rle"
    __slots__ = ("run_values", "run_lengths", "_length")

    def __init__(self, run_values: list, run_lengths: array):
        self.run_values = run_values
        self.run_lengths = run_lengths
        self._length = sum(run_lengths)

    def __len__(self) -> int:
        return self._length

    def decode(self) -> list:
        out: list = []
        for value, count in zip(self.run_values, self.run_lengths):
            out.extend([value] * count)
        return out

    def size_bytes(self) -> int:
        return (sys.getsizeof(self.run_values)
                + sum(map(sys.getsizeof, self.run_values))
                + sys.getsizeof(self.run_lengths))


class DictionaryColumn(ColumnCodec):
    """Low-cardinality values as narrow codes into a value table.

    The value table keeps the *original* objects, so decoding hands back
    the very same strings/floats that were stored (NaN-safe).  ``None``
    is an ordinary dictionary entry — no separate bitmap needed.
    """

    name = "dictionary"
    __slots__ = ("codes", "values")

    def __init__(self, codes: array, values: list):
        self.codes = codes
        self.values = values

    def __len__(self) -> int:
        return len(self.codes)

    def decode(self) -> list:
        return list(map(self.values.__getitem__, self.codes))

    def codes_for(self, value: Any) -> list[int]:
        """Codes whose dictionary entry compares SQL-equal to *value*.

        Usually zero or one code; can be several because codes are
        assigned per exact type while ``=`` uses Python equality (``1``
        and ``True`` are distinct entries yet compare equal).  An empty
        list lets dictionary-aware equality filters skip the block.
        """
        try:
            return [code for code, entry in enumerate(self.values)
                    if entry is not None and entry == value]
        except TypeError:  # incomparable probe value matches nothing
            return []

    def size_bytes(self) -> int:
        return (sys.getsizeof(self.codes) + sys.getsizeof(self.values)
                + sum(map(sys.getsizeof, self.values)))


def _is_float_zero(value: Any) -> bool:
    return type(value) is float and value == 0.0


def _zero_signs_agree(a: float, b: float) -> bool:
    """True unless *a*/*b* are IEEE zeros of opposite sign.

    ``-0.0 == 0.0`` (and they hash alike), so equality-based dedup would
    canonicalise the sign of whichever zero it saw first.  Nonzero equal
    floats always share a sign, so only the zero case needs the
    ``copysign`` probe."""
    return math.copysign(1.0, a) == math.copysign(1.0, b)


def _run_pairs(values: Sequence[Any]) -> tuple[list, list[int]]:
    run_values: list = []
    run_lengths: list[int] = []
    for value in values:
        # Exact-type equality: 1 == 1.0 == True in Python, but collapsing
        # them into one run would decode to the wrong objects.  Float
        # zeros additionally split runs on sign (-0.0 vs 0.0 compare
        # equal but must decode bit-exactly).
        if run_values and type(value) is type(run_values[-1]) \
                and value == run_values[-1] \
                and (not _is_float_zero(value)
                     or _zero_signs_agree(value, run_values[-1])):
            run_lengths[-1] += 1
        else:
            run_values.append(value)
            run_lengths.append(1)
    return run_values, run_lengths


def encode_column(values: Sequence[Any]) -> ColumnCodec:
    """Pick and build the best codec for *values* (see module docstring).

    Values are whatever the table's write path coerced them to; the
    chooser inspects actual runtime types, so a mistyped or mixed column
    degrades to :class:`PlainColumn` instead of corrupting anything.
    """
    values = list(values)
    n = len(values)
    if n == 0:
        return PlainColumn(values)

    # One C set-build bounds the run count from below (a value can span
    # several runs, never the reverse), letting high-cardinality columns
    # skip the per-value run loop entirely.  Sets collapse 1/1.0/True, so
    # the exact-type run loop still decides; the bound is only a gate.
    try:
        distinct_bound = len(set(values))
    except TypeError:
        distinct_bound = 1  # unhashable: let the run loop look
    value_types = set(map(type, values))

    if distinct_bound == 1 and len(value_types) == 1 \
            and (not _is_float_zero(values[0])
                 or all(_zero_signs_agree(v, values[0]) for v in values)):
        # Constant column: a single run, no loop needed.  A float-zero
        # "constant" first proves sign uniformity — set() collapses
        # -0.0/0.0, so a mixed-sign column reaches here looking constant
        # and must fall through to the sign-aware paths below.
        return RLEColumn([values[0]], array("l", [n]))

    # Run-length first: long runs beat any fixed-width array.
    if distinct_bound * 4 <= n:
        run_values, run_lengths = _run_pairs(values)
        if len(run_values) * 4 <= n:
            try:
                lengths = array("l", run_lengths)
            except OverflowError:  # pragma: no cover - 2^31-row runs
                lengths = array("q", run_lengths)
            return RLEColumn(run_values, lengths)

    nulls_present = type(None) in value_types
    dense = values if not nulls_present \
        else [0 if v is None else v for v in values]

    # bool is an int subclass; exact-type checks keep True/False out of
    # integer arrays (they would decode back as 1/0).
    if value_types <= {int, type(None)}:
        lo, hi = min(dense), max(dense)
        if _INT64_MIN <= lo and hi <= _INT64_MAX:
            nulls = pack_nulls(values) if nulls_present else None
            narrow = _narrow_typecode(lo, hi)
            span = _narrow_typecode(0, hi - lo)
            if span is not None and span != "q" and (narrow is None
                                                     or span < narrow):
                shifted = dense if lo == 0 else [v - lo for v in dense]
                return ForColumn(lo, array(span, shifted), nulls)
            if not nulls_present and n > 1:
                deltas = [b - a for a, b in zip(dense, dense[1:])]
                dcode = _narrow_typecode(min(deltas), max(deltas))
                if dcode is not None and dcode in ("b", "h"):
                    return DeltaColumn(dense[0], array(dcode, deltas))
            return IntColumn(array(narrow or "q", dense), nulls)

    if value_types == {float} and not any(map(math.isnan, dense)):
        nulls = pack_nulls(values) if nulls_present else None
        return FloatColumn(array("d", [0.0 if v is None else v
                                       for v in values]), nulls)

    # Dictionary for low-cardinality hashables (TEXT mostly).  Codes are
    # assigned per (type, value) pair so 1, 1.0 and True — equal and
    # hash-equal in Python — keep distinct entries and decode exactly.
    table: dict = {}
    distinct: list = []
    codes = []
    try:
        for v in values:
            # Float zeros key on their copysign too: (float, 0.0) and
            # (float, -0.0) hash and compare equal, yet must keep
            # distinct dictionary entries to decode bit-exactly.
            if _is_float_zero(v):
                key = (v.__class__, v, math.copysign(1.0, v))
            else:
                key = (v.__class__, v)
            code = table.get(key)
            if code is None:
                code = table[key] = len(distinct)
                distinct.append(v)
            codes.append(code)
    except TypeError:
        return PlainColumn(values)
    if len(distinct) * 4 <= n or len(distinct) <= 16:
        code_type = "B" if len(distinct) <= 0xFF else (
            "H" if len(distinct) <= 0xFFFF else "L")
        return DictionaryColumn(array(code_type, codes), distinct)

    return PlainColumn(values)
