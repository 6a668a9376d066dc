"""Column batches and vectorized kernels for the block pipeline.

When the batch executor runs over :class:`~repro.relational.columnar`
storage, eligible operators stop exchanging row tuples and exchange
*column batches* instead: an object exposing ``length``,
``column(j) -> list`` and ``array(j) -> ArrayVector | None``.  Scans hand
out the store's decoded vectors, filters carry a selection index vector
and gather lazily, joins produce probe/build position vectors and gather
matched columns on demand, and aggregates fold whole key/value vectors.
Row tuples are only materialised where the pipeline ends (the plan root
or an operator without a block implementation).

Every kernel but the aggregate's exists twice.  The *list* kernels
(``column``, :func:`compile_vector`, :func:`position_index`) work on any SQL
values and are the reference.  The *array* kernels (``array``,
:func:`compile_array`, :func:`compile_mask`, :class:`CsrIndex`,
:func:`array_grouped`, and for composite keys :func:`pack_keys` with
:class:`SortedIndex`) run the same computation on numpy int64/float64
vectors and only exist inside an exactness envelope the data itself must
prove — see :func:`exact_array`, :func:`array_grouped` and
:func:`pack_keys`; outside it they answer ``None`` and the caller takes
the list kernel — or, for an aggregate, the operator's row loop.

Everything here is *speculative*: the dispatch in
:mod:`.batch` only takes these paths when the result is provably
identical to the row-at-a-time computation.  A kernel that cannot prove
it declines with None before touching any state; a list kernel that
meets values SQL arithmetic rejects (:data:`VALUE_ERRORS`) makes the
caller replay the operator through the row path, so error type, message
and blame order match the row engine exactly.

The three key-dependent kernels — the CSR probe, the grouping and the
union-by-update merge — come in two halves, a *key plan* built from key
arrays only and an apply that gathers and reduces values (see "key
plans" below), so a fixpoint whose keys stay put pays for its values
only.

Semantics mirrored from :mod:`..expressions`:

* binary operators propagate NULL (``None`` in → ``None`` out) and
  otherwise apply the raw C-level operator — :func:`compile_vector`
  checks ``None in column`` once (a C scan) and picks ``map(op, a, b)``
  or a guarded comprehension accordingly;
* the aggregate kernel reproduces the scalar loops' dict accumulation
  in row order, so float sums associate identically, ``min``/``max`` keep
  the object the same comparisons in the same order would keep, and
  group output order stays first-seen.
"""

from __future__ import annotations

from itertools import repeat
from math import prod
from operator import itemgetter
from typing import Callable, Sequence

import numpy as _np

from ..errors import ExecutionError
from ..expressions import (
    _RAW_BINARY_OPS,
    And,
    BinaryOp,
    BoundColumn,
    CaseWhen,
    Expression,
    IsNull,
    Literal,
    Negate,
    Parameter,
)

Vector = list
VectorFn = Callable[["ColumnBatch"], Vector]

#: Python ints below this magnitude have an exact float64 image, so an
#: int meeting a float computes the same value in either representation.
_EXACT_INT = 2 ** 53

#: What evaluating SQL arithmetic on Python values raises — mixed types,
#: a division or modulo by zero, an int too large for a float.  A list
#: kernel evaluates whole columns one subexpression at a time, so when
#: several rows fail it may meet another of these first than the row
#: path would: the caller replays the row path for the row engine's error.
VALUE_ERRORS = (TypeError, ArithmeticError, ExecutionError)


# -- typed column vectors ------------------------------------------------------


class ArrayVector:
    """A column as a numpy vector holding exactly the list's values.

    ``data`` is int64 (every value a Python ``int``) or float64 (every
    value a ``float``).  A column mixing ints and floats — WCC's labels,
    where ``min`` keeps whichever object came first — is float64 too, with
    ``ints`` flagging the slots whose Python value is an ``int``; those
    are all below 2**53, so comparisons and float arithmetic on the
    float64 image are the ones Python would make.
    """

    __slots__ = ("data", "ints")

    def __init__(self, data, ints=None):
        self.data = data
        self.ints = ints

    def take(self, positions) -> "ArrayVector":
        return ArrayVector(
            self.data[positions],
            None if self.ints is None else self.ints[positions])

    def tolist(self) -> Vector:
        values = self.data.tolist()
        if self.ints is not None:
            for slot in _np.flatnonzero(self.ints).tolist():
                values[slot] = int(values[slot])
        return values


def exact_array(values: Vector) -> ArrayVector | None:
    """*values* as an :class:`ArrayVector`, or None when an array cannot
    stand in for the list: an empty column, NULLs, bools (dict-equal to
    ints but distinct objects), ints outside int64 (or, beside floats,
    outside ±2**53), any other type, or a NaN — the row path carries the
    NaN *object* along, and tuple equality on it is by identity."""
    kinds = set(map(type, values))
    try:
        if kinds == {int}:
            return ArrayVector(_np.array(values, dtype=_np.int64))
        if kinds == {float}:
            data = _np.array(values, dtype=_np.float64)
            ints = None
        elif kinds == {int, float}:
            data = _np.array(values, dtype=_np.float64)
            ints = _np.array(list(map(isinstance, values, repeat(int))),
                             dtype=bool)
            if (_np.abs(data[ints]) >= _EXACT_INT).any():
                return None
        else:
            return None
    except OverflowError:
        return None
    if _np.isnan(data).any():
        return None
    return ArrayVector(data, ints)


def _is_int64(vector: ArrayVector | None) -> bool:
    return vector is not None and vector.data.dtype == _np.int64


def _int_peak(operand) -> int:
    """Largest magnitude in an int64 vector, or of a Python int."""
    if isinstance(operand, ArrayVector):
        data = operand.data
        if not len(data):
            return 0
        return max(abs(int(data.min())), abs(int(data.max())))
    return abs(operand)


def _float_data(vector: ArrayVector):
    """The vector's values as a float64 array, or None when an int64
    vector holds a value with no exact float64 image."""
    if vector.data.dtype == _np.float64:
        return vector.data
    if _int_peak(vector) >= _EXACT_INT:
        return None
    return vector.data.astype(_np.float64)


def _flagged_float(vector: ArrayVector) -> ArrayVector | None:
    """An int64 vector as float64 with every slot flagged an int."""
    if vector.data.dtype == _np.float64:
        return vector
    data = _float_data(vector)
    if data is None:
        return None
    return ArrayVector(data, _np.ones(len(data), dtype=bool))


def _concat_arrays(a: ArrayVector | None,
                   b: ArrayVector | None) -> ArrayVector | None:
    if a is None or b is None:
        return None
    if a.data.dtype != b.data.dtype:
        a, b = _flagged_float(a), _flagged_float(b)
        if a is None or b is None:
            return None
    ints = None
    if a.ints is not None or b.ints is not None:
        ints = _np.concatenate([
            v.ints if v.ints is not None
            else _np.zeros(len(v.data), dtype=bool) for v in (a, b)])
    return ArrayVector(_np.concatenate((a.data, b.data)), ints)


# -- column batches ------------------------------------------------------------

class ColumnBatch:
    """A batch of rows in column-major form."""

    length: int
    #: array views handed out so far (None included), by column
    _arrays: dict

    def _array_once(self, j: int, make) -> "ArrayVector | None":
        try:
            return self._arrays[j]
        except KeyError:
            made = self._arrays[j] = make()
            return made

    def column(self, j: int) -> Vector:
        raise NotImplementedError

    def array(self, j: int) -> ArrayVector | None:
        """Column *j* as a typed vector, or None when it has no exact one
        (see :func:`exact_array`) — callers then use :meth:`column`."""
        return None

    def rows(self) -> list[tuple]:
        """Materialise row tuples (pipeline exit)."""
        raise NotImplementedError


class StoreColumns(ColumnBatch):
    """Columns served straight from a columnar table store."""

    def __init__(self, store):
        self._store = store
        self.length = len(store)

    def column(self, j: int) -> Vector:
        return self._store.column(j)

    def array(self, j: int) -> ArrayVector | None:
        return self._store.array(j)

    def rows(self) -> list[tuple]:
        return self._store.materialized()


class RowsColumns(ColumnBatch):
    """Columns extracted lazily from an existing row sequence."""

    def __init__(self, rows: Sequence[tuple], arity: int):
        self._rows = rows
        self.arity = arity
        self.length = len(rows)
        self._cache: dict[int, Vector] = {}
        self._arrays: dict[int, ArrayVector | None] = {}

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is None:
            cached = self._cache[j] = list(map(itemgetter(j), self._rows))
        return cached

    def array(self, j: int) -> ArrayVector | None:
        return self._array_once(j, lambda: exact_array(self.column(j)))

    def rows(self) -> Sequence[tuple]:
        return self._rows


class SubsetColumns(ColumnBatch):
    """A zero-copy column subset of a child batch (``ColumnPrune``)."""

    def __init__(self, child: ColumnBatch, positions: Sequence[int],
                 builder: Callable[[tuple], tuple]):
        self._child = child
        self._positions = positions
        self._builder = builder
        self.length = child.length

    def column(self, j: int) -> Vector:
        return self._child.column(self._positions[j])

    def array(self, j: int) -> ArrayVector | None:
        return self._child.array(self._positions[j])

    def rows(self) -> list[tuple]:
        return list(map(self._builder, self._child.rows()))


class ArrayColumns(ColumnBatch):
    """Columns that exist as typed vectors only — an array kernel's
    output, a plan root's hand-over, a vector-overlay table's snapshot.
    ``column``/``rows`` are where they leave the array pipeline: one
    ``tolist`` per column.  Holding nothing but (never written) arrays,
    its contents are final whatever happens to the tables they came from.
    """

    def __init__(self, vectors: Sequence[ArrayVector]):
        self._vectors = vectors
        self.length = len(vectors[0].data)
        self._cache: dict[int, Vector] = {}

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is None:
            cached = self._cache[j] = self._vectors[j].tolist()
        return cached

    def array(self, j: int) -> ArrayVector | None:
        return self._vectors[j]

    def rows(self) -> list[tuple]:
        return list(zip(*map(self.column, range(len(self._vectors)))))


class DerivedColumns(ColumnBatch):
    """Computed columns (projection output) over a child batch.

    *vectors* are the expressions' list evaluators, *arrays* their array
    evaluators (:func:`compile_array`, None where there is none), both
    compiled once by the operator.  A computed column asked for as a list
    tries its array form first — arithmetic on the child's typed views
    plus one ``tolist`` — while a plain column reference or a literal
    hands through the child's list or repeats the value.
    """

    def __init__(self, child: ColumnBatch, exprs: Sequence[Expression],
                 vectors: Sequence[VectorFn],
                 arrays: Sequence["ArrayFn | None"]):
        self._child = child
        self._exprs = exprs
        self._vectors = vectors
        self._array_fns = arrays
        self.length = child.length
        self._cache: dict[int, Vector] = {}
        self._arrays: dict[int, ArrayVector | None] = {}

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is None:
            typed = (None if isinstance(self._exprs[j], (BoundColumn, Literal))
                     else self.array(j))
            cached = self._cache[j] = (
                typed.tolist() if typed is not None
                else self._vectors[j](self._child))
        return cached

    def array(self, j: int) -> ArrayVector | None:
        return self._array_once(j, lambda: self._evaluate_array(j))

    def _evaluate_array(self, j: int) -> ArrayVector | None:
        evaluate = self._array_fns[j]
        result = evaluate(self._child) if evaluate is not None else None
        if result is None or isinstance(result, ArrayVector):
            return result
        # A bare literal evaluates to a scalar: one value per row.
        return literal_array(result, self.length)

    def rows(self) -> list[tuple]:
        cols = [self.column(j) for j in range(len(self._vectors))]
        if not cols:
            return [()] * self.length
        if len(cols) == 1:
            return list(zip(cols[0]))
        return list(zip(*cols))


class FilteredColumns(ColumnBatch):
    """A selection over a child batch — the positions a list predicate
    kept, or the intp vector of an array mask's — gathering columns
    lazily: a typed column with one ``take``, a list through the
    selection as a list (converted once)."""

    def __init__(self, child: ColumnBatch, selection):
        self.child = child
        self.selection = selection
        self.length = len(selection)
        self._positions: list[int] | None = None
        self._cache: dict[int, Vector] = {}
        self._arrays: dict[int, ArrayVector | None] = {}

    def _selected(self) -> list[int]:
        if self._positions is None:
            selection = self.selection
            self._positions = (selection if isinstance(selection, list)
                               else selection.tolist())
        return self._positions

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is None:
            source = self.child.column(j)
            cached = self._cache[j] = list(
                map(source.__getitem__, self._selected()))
        return cached

    def array(self, j: int) -> ArrayVector | None:
        return self._array_once(j, lambda: self._gather_array(j))

    def _gather_array(self, j: int) -> ArrayVector | None:
        vector = self.child.array(j)
        if vector is None:
            return None
        return vector.take(_np.asarray(self.selection, dtype=_np.intp))

    def rows(self) -> list[tuple]:
        source = self.child.rows()
        return list(map(source.__getitem__, self._selected()))


class ConcatColumns(ColumnBatch):
    """UNION ALL of two batches.

    *memo* (the operator's, inside a union-by-update fixpoint) remembers
    each typed column's concatenation by its two input vectors: the same
    two objects concatenate to the same object again, so a grouping key
    that is one branch's gathered keys followed by R's keys stays one
    vector from iteration to iteration.
    """

    def __init__(self, left: ColumnBatch, right: ColumnBatch,
                 memo: dict | None = None):
        self._left = left
        self._right = right
        self._memo = memo
        self.length = left.length + right.length
        self._cache: dict[int, Vector] = {}
        self._arrays: dict[int, ArrayVector | None] = {}

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is None:
            cached = self._cache[j] = (self._left.column(j)
                                       + self._right.column(j))
        return cached

    def array(self, j: int) -> ArrayVector | None:
        return self._array_once(j, lambda: self._concat_array(j))

    def _concat_array(self, j: int) -> ArrayVector | None:
        left, right = self._left.array(j), self._right.array(j)
        if self._memo is None:
            return _concat_arrays(left, right)
        hit = self._memo.get(j)
        if hit is not None and hit[0] is left and hit[1] is right:
            return hit[2]
        result = _concat_arrays(left, right)
        if result is not None:
            _freeze(result)
            self._memo[j] = (left, right, result)
        return result

    def rows(self) -> list[tuple]:
        return [*self._left.rows(), *self._right.rows()]


class JoinColumns(ColumnBatch):
    """Equi-join output as probe/build gather vectors.

    ``probe_idx[i]``/``build_pos[i]`` name the input rows behind output
    row *i*; columns are gathered on first access, so a downstream
    aggregate that touches two of five join columns never pays for the
    other three — and no concatenated row tuples exist at all.

    The position vectors are int arrays when a :class:`CsrIndex` probe
    produced them, gathered through the :class:`ProbePlan` when one made
    them, and lists when a dict probe did (``probe_idx`` a ``range`` when
    every probe row matched exactly once).  :meth:`array` gathers a typed
    column with one ``take`` either way — list positions are converted to
    ``intp`` once — while :meth:`column` and :meth:`rows` gather lists
    through list positions, never building an array no kernel asked for.
    """

    def __init__(self, probe: ColumnBatch, build: ColumnBatch,
                 probe_idx, build_pos,
                 probe_arity: int, build_arity: int, probe_is_left: bool,
                 plan: "ProbePlan | None" = None):
        self._probe = probe
        self._build = build
        self._plan = plan
        self.probe_idx = probe_idx
        self.build_pos = build_pos
        self._probe_arity = probe_arity
        self._build_arity = build_arity
        self._probe_is_left = probe_is_left
        self.length = len(build_pos)
        self._typed = not isinstance(build_pos, list)
        self._position_lists: tuple | None = None
        self._position_arrays: tuple | None = None
        self._cache: dict[int, Vector] = {}
        self._arrays: dict[int, ArrayVector | None] = {}

    def _side(self, j: int) -> tuple[ColumnBatch, int, bool]:
        """(input batch, its column, is it the probe side) for output *j*."""
        if self._probe_is_left:
            on_probe = j < self._probe_arity
            local = j if on_probe else j - self._probe_arity
        else:
            on_probe = j >= self._build_arity
            local = j - self._build_arity if on_probe else j
        return (self._probe if on_probe else self._build), local, on_probe

    def _list_positions(self) -> tuple:
        """(probe_idx, build_pos) as lists."""
        if not self._typed:
            return self.probe_idx, self.build_pos
        if self._position_lists is None:
            self._position_lists = (self.probe_idx.tolist(),
                                    self.build_pos.tolist())
        return self._position_lists

    def _array_positions(self) -> tuple:
        """(probe_idx, build_pos) as intp arrays."""
        if self._typed:
            return self.probe_idx, self.build_pos
        if self._position_arrays is None:
            probe_idx = self.probe_idx
            self._position_arrays = (
                _np.arange(len(probe_idx), dtype=_np.intp)
                if type(probe_idx) is range
                else _np.array(probe_idx, dtype=_np.intp),
                _np.array(self.build_pos, dtype=_np.intp))
        return self._position_arrays

    def array(self, j: int) -> ArrayVector | None:
        return self._array_once(j, lambda: self._gather_array(j))

    def _gather_array(self, j: int) -> ArrayVector | None:
        source, local, on_probe = self._side(j)
        vector = source.array(local)
        if vector is None:
            return None
        if self._plan is not None:
            return self._plan.gather(j, vector, on_probe)
        return vector.take(self._array_positions()[0 if on_probe else 1])

    def column(self, j: int) -> Vector:
        cached = self._cache.get(j)
        if cached is not None:
            return cached
        typed = self.array(j) if self._typed else None
        if typed is not None:
            cached = typed.tolist()
        else:
            source, local, on_probe = self._side(j)
            positions = self._list_positions()[0 if on_probe else 1]
            cached = source.column(local)
            # A range is the identity: every probe row matched once.
            if type(positions) is not range:
                cached = list(map(cached.__getitem__, positions))
        self._cache[j] = cached
        return cached

    def rows(self) -> list[tuple]:
        probe_rows = self._probe.rows()
        build_rows = self._build.rows()
        probe_idx, build_pos = self._list_positions()
        if self._probe_is_left:
            return [probe_rows[i] + build_rows[p]
                    for i, p in zip(probe_idx, build_pos)]
        return [build_rows[p] + probe_rows[i]
                for i, p in zip(probe_idx, build_pos)]


def position_index(columns: Sequence[Vector]) -> tuple[dict, int]:
    """``(key -> row positions, rows indexed)`` over a build side's key
    columns: scalar keys for one column, tuples for several.  NULL keys
    are left out — they match nothing."""
    scalar = len(columns) == 1
    index: dict = {}
    for pos, key in enumerate(columns[0] if scalar else zip(*columns)):
        if (key is None if scalar else None in key):
            continue
        bucket = index.get(key)
        if bucket is None:
            index[key] = [pos]
        else:
            bucket.append(pos)
    return index, sum(map(len, index.values()))


def _dense(low: int, high: int, n: int) -> bool:
    """True when int keys spanning ``low..high`` over *n* rows can address
    per-key slots directly (``key - low``): graph node ids, where the key
    range is about the row count.  Sparser keys stay on the dict kernels."""
    return high - low + 1 <= 4 * n + 1024


# -- the sort under every index, distinct and grouping -------------------------
#
# numpy's stable argsort of int64 keys is several times slower than a
# plain (SIMD) ``sort`` of int64 values.  Shifting each key
# (less the minimum) left by ``bits`` and OR-ing in its row position
# makes every value distinct and ordered by (key, position), so one plain
# sort yields exactly the stable order.  Keys already in order (node ids,
# a table loaded in key order) are their own stable order: one compare
# finds them, where the plain sort would still pay in full and the stable
# argsort is a linear merge of one run.  When the key span leaves no
# room for ``bits`` below bit 62, the stable argsort runs instead.


def stable_order(keys):
    """``keys.argsort(kind="stable")`` of an int64 vector, as one sort of
    position-tagged keys when the key span fits beside the positions."""
    n = len(keys)
    if (keys[1:] >= keys[:-1]).all():
        return _np.arange(n)
    bits = (n - 1).bit_length()
    low = keys.min()
    if int(keys.max()) - int(low) >= 1 << (62 - bits):
        return keys.argsort(kind="stable")
    tagged = keys - low
    tagged <<= bits
    tagged |= _np.arange(n)
    tagged.sort()
    tagged &= (1 << bits) - 1
    return tagged


def unique_runs(keys) -> tuple:
    """``(distinct, first, inverse, counts)`` of an int64 vector — what
    ``np.unique`` answers with ``return_index``, ``return_inverse`` and
    ``return_counts`` — from one :func:`stable_order`."""
    # Array methods and ``out=``, not numpy's function wrappers: TC's
    # UNION numbers a few hundred keys a round, where calls are the cost.
    n = len(keys)
    order = stable_order(keys)
    ordered = keys[order]
    opens = _np.ones(n, dtype=bool)
    _np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
    starts = opens.nonzero()[0]
    ranks = opens.cumsum()
    ranks -= 1
    inverse = _np.empty(n, dtype=_np.intp)
    inverse[order] = ranks
    counts = _np.empty_like(starts)
    _np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = n - starts[-1:]
    return ordered[starts], order[starts], inverse, counts


class CsrIndex:
    """Position index over a dense int64 build-key column, as typed arrays.

    ``order`` is the stable argsort of the keys, so each distinct key owns
    one run of it holding that key's row positions in ascending order —
    the order a dict bucket lists them in.  ``starts``/``counts`` locate
    the run, directly addressed by ``key - base``.  A column store patches
    it (:meth:`appended`, :meth:`without`) into a new index.
    """

    __slots__ = ("order", "starts", "counts", "base", "top", "_kept", "_slots")

    def __init__(self, order, counts, base: int):
        self.order, self.counts = order, counts
        self.base, self.top = base, base + len(counts) - 1
        self.starts = counts.cumsum() - counts
        #: (a probe key vector, its rows' runs) — see probe_rows
        self._kept: tuple | None = None
        #: per slot the row of a once-held key, else -1 — see locate
        self._slots = None

    def __len__(self) -> int:
        return len(self.order)

    def probe(self, keys) -> tuple:
        """``(probe_idx, build_pos)`` int arrays pairing every probe row
        with each build row of equal key — probe-major, ties in build
        order: exactly the sequence the dict probe emits."""
        return _expand_runs(self.order, *self._runs(keys))

    def probe_rows(self, keys: ArrayVector, rows) -> tuple:
        """:meth:`probe` of the rows *rows* of the int64 vector *keys*,
        with ``probe_idx`` naming rows of *keys*.  The runs of every row
        of *keys* are kept for as long as the same vector object comes
        back (it is made read-only), so a fixpoint probing the changed
        rows of one key column pays per changed row only."""
        kept = self._kept
        if kept is None or kept[0] is not keys:
            _freeze(keys)
            kept = self._kept = (keys, *self._runs(keys.data))
        return _expand_runs(self.order, kept[1][rows], kept[2][rows], rows)

    def positions(self, keys: Sequence[ArrayVector]):
        """The ascending positions of the rows holding one of the int64
        keys ``keys[0]``."""
        runs = self._runs(_np.unique(keys[0].data))
        return _np.sort(_expand_runs(self.order, *runs)[1])

    def locate(self, keys):
        """The row of each of the non-empty int64 *keys*, or None when one
        is not the key of exactly one row, or the index's base is 2**62 or
        more in magnitude: one gather over a row-by-slot array built on the
        first call (a union-by-update step's)."""
        if self._slots is None:
            self._slots = _np.where(self.counts == 1, self.order.take(
                self.starts, mode="clip"), -1)
        # Below 2**62 in magnitude, ``base`` keeps ``keys - base`` from
        # wrapping into range: as unsigned, a key outside it is too big.
        offsets = keys - self.base
        if abs(self.base) >= 2 ** 62 \
                or offsets.view(_np.uint64).max() >= len(self._slots):
            return None
        found = self._slots[offsets]
        return None if found.min() < 0 else found

    def appended(self, keys: Sequence[ArrayVector], start: int):
        """This index with rows ``start, start + 1, ...`` of keys
        ``keys[0]`` appended — each at the end of its key's run, no sort
        of the old keys — or None when one falls outside the range."""
        data = keys[0].data
        if data.min() < self.base or data.max() > self.top:
            return None
        slots = data - self.base
        ranked = stable_order(slots)
        ends = (self.starts + self.counts)[slots[ranked]]
        counts = self.counts + _np.bincount(slots, minlength=len(self.counts))
        return CsrIndex(_np.insert(self.order, ends, ranked + start), counts,
                        self.base)

    def without(self, keep):
        """This index over the rows the bool vector *keep* marks,
        renumbered — or None when the range is no longer dense for them."""
        alive = keep[self.order]
        slots = _np.arange(len(self.counts)).repeat(self.counts)[alive]
        if not _dense(self.base, self.top, len(slots)):
            return None
        return CsrIndex((keep.cumsum() - 1)[self.order[alive]],
                        _np.bincount(slots, minlength=len(self.counts)),
                        self.base)

    def _runs(self, keys) -> tuple:
        """Each probe key's run: ``(starts, counts)``, count 0 for a key
        outside the index."""
        # Compare before subtracting: a far-away key may wrap int64.
        if len(keys) and keys.min() >= self.base and keys.max() <= self.top:
            slots = keys - self.base
            counts = self.counts[slots]
        else:
            inside = (keys >= self.base) & (keys <= self.top)
            slots = _np.where(inside, keys - self.base, 0)
            counts = _np.where(inside, self.counts[slots], 0)
        return self.starts[slots], counts


def _expand_runs(order, starts, counts, labels=None) -> tuple:
    """``(probe_idx, build_pos)`` for probe rows each matching the run
    ``order[starts[i]:starts[i] + counts[i]]`` of build positions; probe
    row *i* is named ``labels[i]`` (default *i*)."""
    # Array methods, not numpy's function wrappers: a step probes a few
    # keys, where the per-call overhead is the cost.
    if labels is None:
        labels = _np.arange(len(counts))
    ends = counts.cumsum()
    # Output row r of probe row i sits r - (ends[i] - counts[i]) into
    # its run.
    shift = (starts - ends + counts).repeat(counts)
    shift += _np.arange(len(shift))
    return labels.repeat(counts), order[shift]


def csr_index(keys: ArrayVector | None) -> CsrIndex | None:
    """A :class:`CsrIndex` over a key column's array view, when it has a
    non-empty all-int one with a dense key range."""
    if not _is_int64(keys) or not len(keys.data):
        return None
    base, top = int(keys.data.min()), int(keys.data.max())
    if not _dense(base, top, len(keys.data)):
        return None
    return CsrIndex(stable_order(keys.data),
                    _np.bincount(keys.data - base, minlength=top - base + 1),
                    base)


# -- key plans -----------------------------------------------------------------
#
# Once every vertex is in R, a union-by-update fixpoint changes R's values
# and never its keys: each iteration probes the same key vector against
# the same build keys, groups the same gathered keys and merges the same
# delta keys into the same table keys.  A *key plan* is what a kernel
# computes from key arrays alone — probe pairs, group slots, the merge's
# slot map — and the operator that built one keeps it (one entry) for as
# long as its next input's key vectors are the very objects the plan
# holds a strong reference to: identity (``is``), never equality and
# never ``id()``.  The arrays are made read-only, so the same object is
# the same data.  Only plans inside a keyed union-by-update fixpoint are
# kept (:func:`~repro.relational.physical.batch.keep_key_plans`): there
# R's keys are distinct, so a plan is bounded by the size of its inputs
# and does not grow with the iterations.


def _freeze(*items) -> None:
    """Mark numpy arrays, or an :class:`ArrayVector`'s arrays, read-only."""
    for item in items:
        if isinstance(item, ArrayVector):
            item.data.flags.writeable = False
            if item.ints is not None:
                item.ints.flags.writeable = False
        else:
            item.flags.writeable = False


class ProbePlan:
    """The key half of a block join: the ``(probe_idx, build_pos)`` pairs
    a :class:`CsrIndex` probe made of one probe key vector against one
    build key vector (and the build store's ``version``, None off a
    store), with the ``observed`` build rows indexed.

    It also memoises the gathers it served, one per output column: the
    same source vector taken at these pairs is the same vector again —
    which keeps a grouping key gathered from a static table one object
    from iteration to iteration.
    """

    __slots__ = ("probe_keys", "build_keys", "version", "probe_idx",
                 "build_pos", "observed", "_gathers", "__weakref__")

    def __init__(self, probe_keys: ArrayVector, build_keys: ArrayVector,
                 version, probe_idx, build_pos, observed: int):
        _freeze(probe_keys, build_keys, probe_idx, build_pos)
        self.probe_keys, self.build_keys = probe_keys, build_keys
        self.version = version
        self.probe_idx, self.build_pos = probe_idx, build_pos
        self.observed = observed
        self._gathers: dict[int, tuple] = {}

    def fits(self, probe_keys: ArrayVector, build_keys: ArrayVector,
             version) -> bool:
        return (self.probe_keys is probe_keys
                and self.build_keys is build_keys
                and self.version == version)

    def gather(self, j: int, vector: ArrayVector,
               on_probe: bool) -> ArrayVector:
        """Output column *j*: *vector* taken at the probe or build side's
        positions."""
        hit = self._gathers.get(j)
        if hit is not None and hit[0] is vector:
            return hit[1]
        taken = vector.take(self.probe_idx if on_probe else self.build_pos)
        _freeze(taken)
        self._gathers[j] = (vector, taken)
        return taken


def probe_plan(index: CsrIndex, observed: int, probe_keys: ArrayVector,
               build_keys: ArrayVector, version) -> ProbePlan:
    """Probe *index* (built over *build_keys*) with *probe_keys*."""
    return ProbePlan(probe_keys, build_keys, version,
                     *index.probe(probe_keys.data), observed)


# -- packed multi-column keys --------------------------------------------------
#
# The paper's relations are edge-shaped, ``(F, T)``: UNION deduplicates
# pairs, MM-joins and triangle counts join and group on two columns.  Two
# int64 key columns whose value ranges multiply to less than 2**62 pack
# into one int64 that is equal exactly when the pairs are, and orders as
# they do lexicographically — so every single-key array kernel (sort,
# ``unique``, ``searchsorted``) serves composite keys unchanged.

#: Packed keys stay below this bound (and so inside int64).
_PACK_LIMIT = 2 ** 62


def pack_keys(vectors: Sequence[ArrayVector | None],
              packing: tuple | None = None) -> tuple | None:
    """``(packed, packing)``: the key columns *vectors* as one int64
    vector ``Σ (column_j - base_j) · stride_j``, where *packing* holds a
    ``(base, span)`` per column and ``stride_j`` is the product of the
    spans after column *j*.  None unless every column is an int64 view —
    NULL, bool, float and text columns have none — and, when the layout
    is derived from the data, the columns are non-empty and their spans
    multiply to less than 2**62.

    Given a *packing* (a cached build index's), rows outside it pack to
    ``-1``, which no row inside it packs to.
    """
    if not vectors or not all(map(_is_int64, vectors)):
        return None
    n = len(vectors[0].data)
    bounds = [(int(v.data.min()), int(v.data.max())) if n else (0, -1)
              for v in vectors]
    if packing is None:
        if not n:
            return None
        size = 1
        for low, high in bounds:
            size *= high - low + 1
            if size >= _PACK_LIMIT:
                return None
        packing = tuple((low, high - low + 1) for low, high in bounds)
    clipped = any(low < base or high > base + span - 1
                  for (low, high), (base, span) in zip(bounds, packing))
    packed = _np.zeros(n, dtype=_np.int64)
    inside = _np.ones(n, dtype=bool) if clipped else None
    for vector, (base, span) in zip(vectors, packing):
        data = vector.data
        packed *= span
        if clipped:
            # Compare before subtracting: a far-away key may wrap int64.
            fits = (data >= base) & (data <= base + span - 1)
            inside &= fits
            packed += _np.where(fits, data - base, 0)
        else:
            packed += data - base
    if clipped:
        packed[~inside] = -1
    return packed, packing


def unpack_keys(packed, packing: tuple) -> list:
    """The int64 key columns :func:`pack_keys` packed into *packed*."""
    columns = []
    for low, span in reversed(packing):
        packed, offset = _np.divmod(packed, span)
        columns.append(offset + low)
    return columns[::-1]


def packed_member(keys, sorted_keys):
    """A bool vector: whether each of *keys* occurs in the ascending
    *sorted_keys* (binary search)."""
    slots = _np.searchsorted(sorted_keys, keys)
    inside = slots < len(sorted_keys)
    found = _np.zeros(len(keys), dtype=bool)
    found[inside] = sorted_keys[slots[inside]] == keys[inside]
    return found


#: A packed key space of at most this many slots holds a key set as a
#: ``bool`` bitmap, one byte a slot (16 MiB at the bound; TC over 2000
#: nodes packs into 4.0M slots); a larger — sparse — space keeps its keys
#: sorted for :func:`packed_member`.
_BITMAP_LIMIT = 2 ** 24


def key_set(keys, packing: tuple):
    """The packed *keys* as a set for :func:`key_set_member` and
    :func:`key_set_add`: a ``bool`` bitmap over *packing*'s slots —
    positional, membership is one gather — when they number at most
    :data:`_BITMAP_LIMIT`, else the keys sorted."""
    size = prod(span for _, span in packing)
    if size > _BITMAP_LIMIT:
        return _np.sort(keys)
    bitmap = _np.zeros(size, dtype=bool)
    bitmap[keys] = True
    return bitmap


def key_set_member(keys, seen):
    """A bool vector: whether each of *keys*, packed inside the packing
    *seen* was built for, is in *seen*."""
    if seen.dtype == bool:
        return seen[keys]
    return packed_member(keys, seen)


def key_set_add(seen, keys):
    """*seen* with the ascending distinct *keys* added: a bitmap marked in
    place (and returned), sorted keys as a new merged vector."""
    if seen.dtype == bool:
        seen[keys] = True
        return seen
    return _np.insert(seen, _np.searchsorted(seen, keys), keys)


#: int64's range: a Python int outside it equals no value of an int64 view.
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


class SortedIndex:
    """Position index over an int64 key column that is not dense —
    packed composite keys — as typed arrays: the :class:`CsrIndex` twin
    that finds each key's run by binary search in the sorted keys instead
    of addressing it.  ``order`` is the stable argsort, so a run lists its
    rows in ascending position, the order a dict bucket lists them in.
    ``packing`` is the layout the keys were packed with (probe keys must
    be packed with it too).  A column store patches it as a
    :class:`CsrIndex`.
    """

    __slots__ = ("order", "keys", "packing", "distinct")

    def __init__(self, order, keys, packing: tuple, distinct: bool):
        self.order, self.keys, self.packing = order, keys, packing
        #: whether no key repeats: found where the keys are sorted, kept
        #: by the patches — see probe
        self.distinct = distinct

    def __len__(self) -> int:
        return len(self.order)

    def probe(self, keys) -> tuple:
        """As :meth:`CsrIndex.probe`: the dict probe's sequence.  Over
        distinct keys a run holds at most one row, so one search and an
        equality check find it."""
        ordered = self.keys
        if not (self.distinct and len(ordered)):
            return _expand_runs(self.order, *self._runs(keys))
        starts = ordered.searchsorted(keys, side="left")
        # A start past the end clips onto the largest key, which is
        # smaller than the probe key.
        found = ordered.take(starts, mode="clip") == keys
        return _expand_runs(self.order, starts, found.astype(_np.intp))

    def positions(self, keys: Sequence[ArrayVector]):
        """The ascending positions of the rows holding one of the keys
        given as one int64 vector per key column."""
        # A key outside the packing packs to -1, which matches nothing.
        runs = self._runs(_np.unique(pack_keys(keys, self.packing)[0]))
        return _np.sort(_expand_runs(self.order, *runs)[1])

    def appended(self, keys: Sequence[ArrayVector], start: int):
        """As :meth:`CsrIndex.appended`: None when a key falls outside
        the packing."""
        packed = pack_keys(keys, self.packing)[0]
        if packed.min() < 0:
            return None
        ranked = stable_order(packed)
        added = packed[ranked]
        at = self.keys.searchsorted(added, side="right")
        # A key already held sits just left of where its new row goes; a
        # row going first wraps onto the largest key, which is larger.
        distinct = self.distinct and bool((added[1:] != added[:-1]).all()) \
            and not (len(self.keys) and (self.keys[at - 1] == added).any())
        return SortedIndex(_np.insert(self.order, at, ranked + start),
                           _np.insert(self.keys, at, added),
                           self.packing, distinct)

    def without(self, keep):
        """As :meth:`CsrIndex.without`."""
        alive = keep[self.order]
        return SortedIndex((keep.cumsum() - 1)[self.order[alive]],
                           self.keys[alive], self.packing, self.distinct)

    def _runs(self, keys) -> tuple:
        starts = self.keys.searchsorted(keys, side="left")
        return starts, self.keys.searchsorted(keys, side="right") - starts


def sorted_index(keys: Sequence[ArrayVector | None]) -> SortedIndex | None:
    """A :class:`SortedIndex` over several key columns' array views, when
    :func:`pack_keys` packs them."""
    packed = pack_keys(keys)
    if packed is None:
        return None
    order = stable_order(packed[0])
    keys = packed[0][order]
    return SortedIndex(order, keys, packed[1],
                       bool((keys[1:] != keys[:-1]).all()))


def same_bag(left: "ColumnBatch", right: "ColumnBatch",
             arity: int) -> bool | None:
    """Whether two batches of equal length hold the same multiset of rows,
    decided on their typed columns — or None when a column has no typed
    view on either side, the two views differ in dtype, or a float column
    holds a NaN (rows compare a NaN object by identity)."""
    if not arity:
        return None
    pairs = []
    for j in range(arity):
        a, b = left.array(j), right.array(j)
        if a is None or b is None or a.data.dtype != b.data.dtype:
            return None
        if a.data.dtype == _np.float64 and (
                _np.isnan(a.data).any() or _np.isnan(b.data).any()):
            return None
        pairs.append((a.data, b.data))
    # Sort both sides' rows lexicographically (the last key is primary).
    left_order = _np.lexsort([a for a, _ in reversed(pairs)])
    right_order = _np.lexsort([b for _, b in reversed(pairs)])
    return all(bool((a[left_order] == b[right_order]).all())
               for a, b in pairs)


def distinct_rows(vectors: Sequence[ArrayVector]):
    """The ascending positions of each distinct row's first occurrence
    over the typed columns *vectors* (one length, at least one row) —
    the rows a set of row tuples keeps, walked in order — or None where
    tuple equality is not equality of the values: a column flagging ints,
    or a NaN.  A float column is keyed with ``-0.0`` folded onto ``0.0``
    (equal in a tuple); the kept row holds its own zero.

    Each column becomes int64 codes (dense values offset, others ranked
    by :func:`unique_runs`) and the codes fold into one key per row, re-ranked
    whenever the next fold could leave :data:`_PACK_LIMIT`."""
    length = len(vectors[0].data)
    key, span = None, 1
    for vector in vectors:
        data = vector.data
        if vector.ints is not None:
            return None
        if data.dtype == _np.float64:
            if _np.isnan(data).any():
                return None
            data = (data + 0.0).view(_np.int64)  # -0.0 + 0.0 is 0.0
        low, high = int(data.min()), int(data.max())
        if _dense(low, high, length):
            codes, size = data - low, high - low + 1
        else:
            distinct, _, codes, _ = unique_runs(data)
            size = len(distinct)
        if key is None:
            key, span = codes, size
            continue
        if span * size >= _PACK_LIMIT:
            distinct, _, key, _ = unique_runs(key)
            span = len(distinct)
        key, span = key * size + codes, span * size
    return _np.sort(distinct_first(key)[1])


# -- union-by-update on typed vectors -----------------------------------------
#
# The recursive relation of a with+ fixpoint is keyed by a dense vertex
# id, so ``R ⊎ delta`` needs no hash table: a delta row's key addresses
# its slot directly.  These are the array twins of the row merge in
# :meth:`repro.relational.table.Table.merge_delta_rebuild`, which runs
# whenever one of them answers None.


def all_distinct(vector: ArrayVector) -> bool:
    """True when no two values of *vector* compare equal and none is a
    NaN (which a set of row values tells apart by identity)."""
    data = _np.sort(vector.data)  # NaNs sort last
    return bool((data[1:] != data[:-1]).all()) \
        and not (len(data) and data[-1] != data[-1])


def cast_exact(vector: ArrayVector, integer: bool) -> ArrayVector | None:
    """*vector* as the plain int64 (*integer*) or float64 vector of what
    :func:`repro.relational.types.coerce` stores for each value, or None
    where a dtype cast is not that: INTEGER takes floats that are finite
    and inside int64, truncated as ``int()`` truncates; DOUBLE takes ints
    below 2**53 and no NaN (stored rows compare a NaN by identity)."""
    data = vector.data
    if integer:
        if data.dtype == _np.int64:
            return vector
        if not (_np.abs(data) < 2.0 ** 63).all():  # false for NaN and inf
            return None
        return ArrayVector(data.astype(_np.int64))
    if data.dtype == _np.int64:
        data = _float_data(vector)
        return None if data is None else ArrayVector(data)
    if _np.isnan(data).any():
        return None
    return vector if vector.ints is None else ArrayVector(data)


class MergePlan:
    """The key half of :func:`merge_dense_key` for one pair of key
    vectors: per old row the new row replacing it (``hit``, -1 for none;
    ``matched``, and ``everything`` when every old row is), and the new
    rows whose key is not among the old ones (``fresh``), in order."""

    __slots__ = ("old_keys", "new_keys", "hit", "matched", "everything",
                 "fresh", "__weakref__")

    def __init__(self, old_keys: ArrayVector, new_keys: ArrayVector,
                 hit, fresh):
        self.old_keys, self.new_keys = old_keys, new_keys
        self.hit, self.fresh = hit, fresh
        self.matched = hit >= 0
        self.everything = bool(self.matched.all())
        _freeze(old_keys, new_keys, hit, fresh, self.matched)

    def fits(self, old_keys: ArrayVector, new_keys: ArrayVector) -> bool:
        return self.old_keys is old_keys and self.new_keys is new_keys


def merge_plan(old_keys: ArrayVector, new_keys: ArrayVector
               ) -> MergePlan | None:
    """The slot map of ``old ⊎ new`` on two non-empty int64 key vectors,
    or None unless their keys are dense and distinct within *new*."""
    old_data, new_data = old_keys.data, new_keys.data
    low = min(int(old_data.min()), int(new_data.min()))
    high = max(int(old_data.max()), int(new_data.max()))
    if not _dense(low, high, len(old_data) + len(new_data)):
        return None
    size = high - low + 1
    new_slots = new_data - low
    source = _np.full(size, -1, dtype=_np.intp)
    source[new_slots] = _np.arange(len(new_data))
    if _np.count_nonzero(source >= 0) != len(new_data):
        return None  # a key twice in *new*: the row merge's last-wins
    old_slots = old_data - low
    present = _np.zeros(size, dtype=bool)
    present[old_slots] = True
    return MergePlan(old_keys, new_keys, source[old_slots],
                     _np.flatnonzero(~present[new_slots]))


def merge_dense_key(old: Sequence[ArrayVector], new: Sequence[ArrayVector],
                    key: int, plan: MergePlan | None = None) -> tuple | None:
    """``old ⊎ new`` on column *key*, both sides column-major and already
    in stored form (plain vectors of one dtype per column): ``(merged
    vectors, replaced, appended, plan)``, or None unless the keys are
    int64, dense and distinct within *new*.  *plan* is the caller's last
    :class:`MergePlan`, reused when it fits these key vectors; the one
    used comes back.

    Same contents, order and counts as the row merge: every *old* row
    whose key *new* carries takes the new row's values in place
    (*replaced* counts those that differ), the others stay, and new keys
    follow in *new*'s order.  The merged vectors are fresh arrays —
    nothing a reader of *old* holds is written to — except the key
    column when no key is appended: its values cannot change, so it is
    *old*'s key vector itself, and the next merge's plan still fits.
    """
    old_keys, new_keys = old[key], new[key]
    if not (old_keys.data.dtype == new_keys.data.dtype == _np.int64
            and len(old_keys.data) and len(new_keys.data)):
        return None
    for before, after in zip(old, new):
        if before.ints is not None or before.data.dtype != after.data.dtype:
            return None
    if plan is None or not plan.fits(old_keys, new_keys):
        plan = merge_plan(old_keys, new_keys)
        if plan is None:
            return None
    hit, fresh = plan.hit, plan.fresh
    changed = _np.zeros(len(old_keys.data), dtype=bool)
    merged = []
    for j, (before, after) in enumerate(zip(old, new)):
        if j == key:
            # A matched row's new key is its old key.
            if not len(fresh):
                merged.append(before)
                continue
            values = before.data
        else:
            values = after.data[hit]
            if not plan.everything:
                values = _np.where(plan.matched, values, before.data)
            changed |= values != before.data
        if len(fresh):
            values = _np.concatenate((values, after.data[fresh]))
        merged.append(ArrayVector(values))
    return merged, int(_np.count_nonzero(changed)), len(fresh), plan


# -- union-by-update steps on the changed keys ---------------------------------


def negative_zero(vector: ArrayVector) -> bool:
    """True when a float64 *vector* holds a ``-0.0``."""
    data = vector.data
    return data.dtype == _np.float64 \
        and bool(_np.signbit(data[data == 0.0]).any())


def improve_extremes(function: str, current: ArrayVector, at,
                     candidates: ArrayVector, integer: bool,
                     zeros: bool) -> tuple | None:
    """What one union-by-update step writes to R's value column *current*
    (a plain vector in stored form): candidate *i* competes with row
    ``at[i]``'s value under ``min`` or ``max``, and each row keeps its
    winner as :func:`~repro.relational.types.coerce` stores it in an
    INTEGER (*integer*) or DOUBLE column.  The candidates are cast first:
    both casts are monotone, so the winner's cast is the cast winner.

    Returns ``(values, positions)`` — the new column, a fresh array, and
    the rows whose value changed, ascending — or None for a candidate
    without an exact cast (:func:`cast_exact`: NaN included) or, in a
    DOUBLE column and unless *zeros*, a winner of zero at a row a
    candidate names: ``0.0`` and ``-0.0`` compare equal, so which one the
    grouped ``min`` keeps depends on candidates the step does not see.
    *zeros* is the caller's proof that no ``-0.0`` can occur."""
    values = cast_exact(candidates, integer)
    if values is None:
        return None
    data = current.data
    best = data.copy()
    (_np.minimum if function == "min" else _np.maximum).at(
        best, at, values.data)
    if not integer and not zeros and not best[at].all():
        return None
    return best, (best != data).nonzero()[0]


# -- vectorized expression evaluation ----------------------------------------


def _none_free(column: Vector) -> bool:
    # ``in`` scans at C speed; values are SQL scalars, so ``==`` against
    # None is never user-defined.
    return None not in column


def compile_vector(expr: Expression) -> VectorFn | None:
    """Lower a bound expression to a whole-column evaluator.

    Returns None when *expr* uses a node kind the vectorizer does not
    cover — callers fall back to the row path.  Covered: literals and
    parameters, column references, binary arithmetic/comparison,
    negation, IS NULL.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch: [value] * batch.length
    if isinstance(expr, Parameter):  # a literal bound per execution
        return lambda batch: [expr.evaluate(())] * batch.length
    if isinstance(expr, BoundColumn):
        index = expr.index
        return lambda batch: batch.column(index)
    if isinstance(expr, BinaryOp):
        raw = _RAW_BINARY_OPS.get(expr.op)
        if raw is None:
            return None
        if isinstance(expr.right, Literal) and expr.right.value is not None \
                and not isinstance(expr.left, Literal):
            left = compile_vector(expr.left)
            if left is None:
                return None
            constant = expr.right.value

            def eval_rconst(batch: ColumnBatch) -> Vector:
                a = left(batch)
                if _none_free(a):
                    return list(map(raw, a, repeat(constant)))
                return [None if x is None else raw(x, constant) for x in a]

            return eval_rconst
        if isinstance(expr.left, Literal) and expr.left.value is not None \
                and not isinstance(expr.right, Literal):
            right = compile_vector(expr.right)
            if right is None:
                return None
            constant = expr.left.value

            def eval_lconst(batch: ColumnBatch) -> Vector:
                b = right(batch)
                if _none_free(b):
                    return list(map(raw, repeat(constant), b))
                return [None if x is None else raw(constant, x) for x in b]

            return eval_lconst
        left = compile_vector(expr.left)
        right = compile_vector(expr.right)
        if left is None or right is None:
            return None

        def eval_binary(batch: ColumnBatch) -> Vector:
            a = left(batch)
            b = right(batch)
            if _none_free(a) and _none_free(b):
                return list(map(raw, a, b))
            return [None if x is None or y is None else raw(x, y)
                    for x, y in zip(a, b)]

        return eval_binary
    if isinstance(expr, Negate):
        operand = compile_vector(expr.operand)
        if operand is None:
            return None

        def eval_negate(batch: ColumnBatch) -> Vector:
            values = operand(batch)
            if _none_free(values):
                return [-v for v in values]
            return [None if v is None else -v for v in values]

        return eval_negate
    if isinstance(expr, IsNull):
        operand = compile_vector(expr.operand)
        if operand is None:
            return None
        if expr.negated:
            return lambda batch: [v is not None for v in operand(batch)]
        return lambda batch: [v is None for v in operand(batch)]
    case = _literal_case(expr)
    if case is not None:
        index, key, then, otherwise = case
        # A NULL value equals nothing (the row path's NULL is not True),
        # and *key* is not NULL, so ``==`` decides exactly as it does.
        return lambda batch: [then if value == key else otherwise
                              for value in batch.column(index)]
    return None


def _literal_case(expr: Expression) -> tuple | None:
    """``(column, key, then, otherwise)`` when *expr* is ``CASE WHEN
    column = key THEN then ELSE otherwise END`` over literals — SSSP's
    initial distance, either side of the ``=`` — with a non-NULL key;
    else None."""
    if not (isinstance(expr, CaseWhen) and len(expr.branches) == 1
            and isinstance(expr.default, Literal)):
        return None
    (condition, then), = expr.branches
    if not (isinstance(condition, BinaryOp) and condition.op == "="
            and isinstance(then, Literal)):
        return None
    column, key = condition.left, condition.right
    if isinstance(column, Literal):
        column, key = key, column
    if not (isinstance(column, BoundColumn) and isinstance(key, Literal)
            and key.value is not None):
        return None
    return column.index, key.value, then.value, expr.default.value


# -- array expression evaluation ----------------------------------------------

#: Evaluates to an :class:`ArrayVector`, to a Python int/float (a literal
#: operand), or to None when a column it reads has no array view or an
#: operation would leave what int64/float64 compute exactly.
ArrayFn = Callable[["ColumnBatch"], "ArrayVector | int | float | None"]

#: The arithmetic :func:`compile_array` lowers, as numpy's ufuncs.
_ARRAY_OPS = {"+": _np.add, "-": _np.subtract, "*": _np.multiply,
              "/": _np.true_divide}


def _as_float(operand):
    """The operand's exact float64 image (array or scalar), or None."""
    if isinstance(operand, ArrayVector):
        return _float_data(operand)
    if type(operand) is float:
        return operand
    return float(operand) if abs(operand) < _EXACT_INT else None


def _kind(operand) -> str:
    """``"int"``, ``"float"`` or — a float64 vector with int slots —
    ``"mixed"``, for a vector or a literal operand."""
    if isinstance(operand, ArrayVector):
        if operand.data.dtype == _np.int64:
            return "int"
        return "float" if operand.ints is None else "mixed"
    return "int" if type(operand) is int else "float"


def _array_binary(op: str, raw, a, b) -> ArrayVector | None:
    """``a op b`` elementwise, where Python's arithmetic and numpy's agree:

    * int with int stays int64, unless the result could leave int64
      (Python ints grow, int64 wraps);
    * anything with a float is IEEE double arithmetic in both — an int
      operand converts first, exactly, below 2**53;
    * a vector mixing ints and floats may only meet a float: against an
      int its int slots would stay ints, with no float64 image to trust;
    * ``/`` needs a float operand — SQL's int / int is an int when the
      quotient is exact — and no zero divisor (``0`` or ``-0.0``), where
      the row path raises its division-by-zero error.
    """
    if not (isinstance(a, ArrayVector) or isinstance(b, ArrayVector)):
        return None
    kinds = {_kind(a), _kind(b)}
    if op == "/" and ("float" not in kinds or not _np.all(
            getattr(b, "data", b) != 0)):
        return None
    if kinds == {"int"}:
        peaks = _int_peak(a), _int_peak(b)
        bound = peaks[0] * peaks[1] if op == "*" else peaks[0] + peaks[1]
        if bound >= 2 ** 63:
            return None
        return ArrayVector(raw(getattr(a, "data", a), getattr(b, "data", b)))
    if "mixed" in kinds and kinds != {"mixed", "float"}:
        return None
    a, b = _as_float(a), _as_float(b)
    if a is None or b is None:
        return None
    with _np.errstate(all="ignore"):  # inf/nan arise silently, as in Python
        return ArrayVector(raw(a, b))


def literal_array(value, length: int) -> ArrayVector | None:
    """*length* copies of an int or float literal as an int64 or float64
    vector — or None where :func:`exact_array` would decline the list of
    them: no rows, an int outside int64, a NaN."""
    if not length or value != value:
        return None
    if type(value) is float:
        return ArrayVector(_np.full(length, value, dtype=_np.float64))
    if _INT64_MIN <= value <= _INT64_MAX:
        return ArrayVector(_np.full(length, value, dtype=_np.int64))
    return None


#: Evaluates to a bool vector over the batch's rows, or None when an
#: operand has no typed view on which numpy compares as Python does.
MaskFn = Callable[["ColumnBatch"], "object | None"]

#: The comparisons :func:`compile_mask` lowers, and each one mirrored
#: (``5 < c`` is ``c > 5``).
_MASK_OPS = {"=": _np.equal, "<>": _np.not_equal, "<": _np.less,
             "<=": _np.less_equal, ">": _np.greater,
             ">=": _np.greater_equal}
_MIRRORED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<",
             ">=": "<="}


def compile_mask(expr: Expression) -> MaskFn | None:
    """Array twin of :func:`compile_vector` for a filter predicate: the
    six comparisons over ``column op literal`` (the literal on either
    side) or ``column op column``, and ``AND`` of those; None for
    anything else — ``OR``, ``NOT``, ``IS NULL``, a literal that is not
    an int or a float, a NaN literal.  A scalar subquery's
    :class:`~repro.relational.expressions.Parameter` counts as a literal
    read per execution (the mask declines such a value).  A typed vector
    holds no NULL, so the mask is exactly where the row predicate is
    True."""
    if isinstance(expr, And):
        parts = [compile_mask(operand) for operand in expr.operands]
        if any(part is None for part in parts):
            return None

        def eval_and(batch: ColumnBatch):
            mask = None
            for part in parts:
                kept = part(batch)
                if kept is None:
                    return None
                mask = kept if mask is None else mask & kept
            return mask

        return eval_and
    if not (isinstance(expr, BinaryOp) and expr.op in _MASK_OPS):
        return None
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(left, (Literal, Parameter)):
        left, right, op = right, left, _MIRRORED[op]
    if not isinstance(left, BoundColumn):
        return None
    compare, index = _MASK_OPS[op], left.index
    if isinstance(right, BoundColumn):
        other = right.index
        return lambda batch: _column_mask(compare, batch.array(index),
                                          batch.array(other))
    if isinstance(right, Parameter):
        def eval_parameter(batch: ColumnBatch):
            value = right.evaluate(())
            return None if value != value else \
                _literal_mask(compare, batch.array(index), value)

        return eval_parameter
    value = right.value if isinstance(right, Literal) else None
    if type(value) not in (int, float) or value != value:
        return None  # a NaN literal: declined, as exact_array declines NaN
    return lambda batch: _literal_mask(compare, batch.array(index), value)


def _literal_mask(compare, vector: ArrayVector | None, value):
    """``vector op value`` as a bool vector where numpy's comparison is
    Python's: an int64 vector against an int inside int64, or through its
    exact float64 image (ints below 2**53) against a float; a float64
    vector (int slots flagged or not) against a float or an int below
    2**53.  Else None."""
    if vector is None or type(value) not in (int, float):
        return None
    data = vector.data
    if data.dtype == _np.int64:
        if type(value) is int:
            if _INT64_MIN <= value <= _INT64_MAX:
                return compare(data, value)
            return None
        data = _float_data(vector)
    elif type(value) is int and abs(value) >= _EXACT_INT:
        return None
    return None if data is None else compare(data, value)


def _column_mask(compare, a: ArrayVector | None, b: ArrayVector | None):
    """``a op b`` elementwise: two vectors of one dtype compare as they
    are; an int64 vector meets a float64 one only through its exact
    float64 image (ints below 2**53); else None."""
    if a is None or b is None:
        return None
    left, right = a.data, b.data
    if left.dtype != right.dtype:
        left, right = _float_data(a), _float_data(b)
        if left is None or right is None:
            return None
    return compare(left, right)


def compile_array(expr: Expression) -> ArrayFn | None:
    """Array twin of :func:`compile_vector` for int/float literals and
    parameters, column references, ``+ - * /`` and the literal CASE of
    :func:`_literal_case` when both its arms are ints or both floats;
    None for anything else.  A bare literal evaluates to the Python value
    (see :func:`literal_array`)."""
    if isinstance(expr, Literal):
        value = expr.value
        if type(value) in (int, float):
            return lambda batch: value
        return None
    if isinstance(expr, Parameter):
        def eval_parameter(batch: ColumnBatch) -> int | float | None:
            value = expr.evaluate(())
            return value if type(value) in (int, float) else None

        return eval_parameter
    case = _literal_case(expr)
    if case is not None:
        index, key, then, otherwise = case
        if not (type(then) is type(otherwise) and type(then) in (int, float)):
            return None

        def eval_case(batch: ColumnBatch) -> ArrayVector | None:
            vector = batch.array(index)
            mask = _literal_mask(_np.equal, vector, key)
            if mask is None:
                return None
            chosen = literal_array(then, len(mask))
            other = literal_array(otherwise, len(mask))
            if chosen is None or other is None:
                return None
            return ArrayVector(_np.where(mask, chosen.data, other.data))

        return eval_case
    if isinstance(expr, BoundColumn):
        index = expr.index
        return lambda batch: batch.array(index)
    if isinstance(expr, BinaryOp) and expr.op in _ARRAY_OPS:
        left = compile_array(expr.left)
        right = compile_array(expr.right)
        if left is None or right is None:
            return None
        op = expr.op
        raw = _ARRAY_OPS[op]

        def eval_binary(batch: ColumnBatch):
            a = left(batch)
            if a is None:
                return None
            b = right(batch)
            if b is None:
                return None
            return _array_binary(op, raw, a, b)

        return eval_binary
    return None


# -- grouped aggregate kernel -------------------------------------------------


def _key_slots(keys) -> tuple:
    """``(slots, first)`` over a non-empty int64 key vector: each row's
    slot — ``key - min`` when the keys are dense, else the key's rank
    among the distinct keys (:func:`unique_runs`) — and per slot, in ascending
    key order, the first row holding it (``len(keys)`` for a slot no row
    holds)."""
    n = len(keys)
    low, high = int(keys.min()), int(keys.max())
    if _dense(low, high, n):
        slots = keys - low if low else keys
        first = _np.full(high - low + 1, n, dtype=_np.intp)
        _np.minimum.at(first, slots, _np.arange(n))
        return slots, first
    _, first, slots, _ = unique_runs(keys)
    return slots, first


def distinct_first(keys) -> tuple:
    """``(distinct, first)``: an int64 vector's distinct values, ascending,
    and the position of each one's first occurrence — ``np.unique`` with
    ``return_index``, by direct addressing when the values are dense."""
    if not len(keys):
        return keys, _np.zeros(0, dtype=_np.intp)
    _, first = _key_slots(keys)
    first = first[first < len(keys)]
    return keys[first], first


#: The aggregate functions :func:`array_grouped` computes.
GROUPED_FUNCTIONS = ("sum", "min", "max", "count", "avg")


class GroupPlan:
    """The key half of :func:`array_grouped` over one key vector: each
    row's accumulator slot (``slots``, ``size`` of them) and, in
    first-seen order, the groups' slots and keys (``groups``,
    ``group_keys``; ``group_vector`` wraps the keys as an
    :class:`ArrayVector`)."""

    __slots__ = ("keys", "slots", "size", "groups", "group_keys",
                 "group_vector", "__weakref__")

    def __init__(self, keys, slots, first):
        n = len(keys)
        # The rows that open a group, in row order: first-seen order.
        opens = _np.zeros(n, dtype=bool)
        opens[first[first < n]] = True
        openers = _np.flatnonzero(opens)
        self.keys, self.slots, self.size = keys, slots, len(first)
        self.groups = slots[openers]
        self.group_keys = keys[openers]
        self.group_vector = ArrayVector(self.group_keys)
        _freeze(keys, slots, self.groups, self.group_keys)

    def fits(self, keys) -> bool:
        return self.keys is keys


def group_plan(keys) -> GroupPlan:
    """The :class:`GroupPlan` of an int64 key vector (slots by
    :func:`_key_slots`); an empty one has no group."""
    if not len(keys):
        empty = _np.zeros(0, dtype=_np.intp)
        return GroupPlan(keys, empty, empty)
    return GroupPlan(keys, *_key_slots(keys))


def single_group(length: int) -> GroupPlan:
    """The one-group plan over *length* (> 0) rows: a key-less
    aggregate's."""
    keys = _np.zeros(length, dtype=_np.int64)
    return GroupPlan(keys, keys, _np.zeros(1, dtype=_np.intp))


def array_grouped(function: str, keys, values: ArrayVector | None,
                  plan: GroupPlan | None = None) -> tuple | None:
    """``(group keys, aggregate)`` — an int64 array and an
    :class:`ArrayVector`, groups in first-seen order — or None.

    *keys* is an int64 array, *values* the argument column (None for
    ``count``, whose NULL-free argument does not matter).  The grouping
    is *plan* when the caller has one for these keys, else
    :func:`group_plan`'s: groups get *dense* accumulator slots,
    ``key - min``, or — for a key range far wider than the row count
    (:func:`_dense`) — :func:`unique_runs` numbers them.  Per function, what
    makes the result the scalar loop's:

    * ``sum`` of int64: exact whenever no partial sum can leave int64;
      of float64: ``bincount`` adds the weights in row order, so every
      group's additions associate as the loop's do — but it starts from
      0.0 where the loop starts from the group's first value, which
      differs for -0.0 (``0.0 + -0.0`` is ``0.0``), so negative zeros
      answer None, as does a column mixing ints and floats;
    * ``avg``: that sum over the group's count — one division, which
      rounds as Python's does where the sum is exact: float64 under the
      ``sum`` rule, int64 whose ``max|v| · n`` stays below 2**53 (the
      float64 sum is the int sum, and ``int / int`` rounds the exact
      quotient once too);
    * ``min``/``max``: the loop replaces its value only on a strict
      comparison, so a group keeps the *first* row holding its extreme.
      When equal values are the same SQL value — int64, or float64 with
      no ``ints`` flags and no ``-0.0`` (:func:`_plain`) — any holder
      will do and the extremes are the result, in one ``ufunc.at`` pass.
      Otherwise the kernel then finds the first position holding each
      extreme and gathers from there — an int meeting an equal float, or
      ``0.0`` meeting ``-0.0``, survives exactly when it came first.  A
      NaN (comparisons all false: the loop's result depends on where it
      sits) answers None.
    """
    if function not in GROUPED_FUNCTIONS:
        return None
    if plan is None:
        plan = group_plan(keys)
    aggregate = _reduce_groups(function, plan, values)
    return None if aggregate is None else (plan.group_keys, aggregate)


def _reduce_groups(function: str, plan: GroupPlan,
                   values: ArrayVector | None) -> ArrayVector | None:
    """The apply half of :func:`array_grouped`."""
    slots, size, groups = plan.slots, plan.size, plan.groups
    if function == "count":
        return ArrayVector(_np.bincount(slots, minlength=size)[groups])
    if values is None:
        return None
    data = values.data
    floating = data.dtype == _np.float64
    if floating and _np.isnan(data).any():
        return None
    if function in ("sum", "avg"):
        if not _plain(values):
            return None
        average = function == "avg"
        if not floating:
            bound = _EXACT_INT if average else 2 ** 63
            if _int_peak(values) * len(data) >= bound:
                return None
        if floating or average:
            # float64, also where no row is weighed (that bincount is int)
            sums = _np.bincount(slots, weights=data, minlength=size
                                ).astype(_np.float64, copy=False)
        else:
            sums = _np.zeros(size, dtype=_np.int64)
            _np.add.at(sums, slots, data)
        if average:
            return ArrayVector(
                sums[groups] / _np.bincount(slots, minlength=size)[groups])
        return ArrayVector(sums[groups])
    if function == "min":
        reduce_at = _np.minimum.at
        seed = _np.inf if floating else _np.iinfo(_np.int64).max
    else:
        reduce_at = _np.maximum.at
        seed = -_np.inf if floating else _np.iinfo(_np.int64).min
    extreme = _np.full(size, seed, dtype=data.dtype)
    reduce_at(extreme, slots, data)
    if _plain(values):
        return ArrayVector(extreme[groups])
    return _first_holders(plan, values, extreme)


def _plain(values: ArrayVector) -> bool:
    """True when *values* holds no int beside floats and no ``-0.0``:
    values that compare equal are then the same SQL value, so a group's
    ``min``/``max`` may come from any row holding it, and a float sum may
    start from ``0.0``."""
    return values.ints is None and not negative_zero(values)


def _first_holders(plan: GroupPlan, values: ArrayVector,
                   extreme) -> ArrayVector:
    """Per group, in first-seen order, the value at the first row holding
    the group's *extreme* (indexed by slot)."""
    slots = plan.slots
    holders = _np.flatnonzero(values.data == extreme[slots])
    where = _np.full(plan.size, len(values.data), dtype=_np.intp)
    _np.minimum.at(where, slots[holders], holders)
    return values.take(where[plan.groups])
