"""Width-adaptive typed buffers: packing, widening, splicing.

A *code buffer* is a sorted (or positionally indexed) sequence of ints
stored contiguously: an ``array.array`` whose typecode is the narrowest
unsigned (``B``/``H``/``I``/``Q``) or signed (``b``/``h``/``i``/``q``)
width that fits the values. All helpers here are **total over three
representations** — ``array``, ``memoryview`` (read-only zero-copy
views, e.g. shared-memory attachments) and plain ``list`` — because the
parity suite builds list-backed twins through the same call sites (see
:func:`list_backend`).

Mutating helpers (:func:`splice`, :func:`shift_tail`, ...) follow one
contract: they mutate in place when the typecode still fits and
**return the buffer to use afterwards** —
a widened copy when a value overflowed the current width. Callers must
always rebind (``buf = splice(buf, ...)``); growth inside one width
rides CPython's over-allocating ``array`` resize, so repeated splices
are amortized O(n) like list splices, and a widening copy happens at
most ``len(_UNSIGNED) - 1`` times over a buffer's life.
"""

from __future__ import annotations

import contextlib
from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import add, floordiv, itemgetter, mod, mul

#: Width ladders, narrowest first. Bounds derive from the platform's
#: actual itemsizes (C guarantees minimums, not exact widths).
_UNSIGNED = ("B", "H", "I", "Q")
_SIGNED = ("b", "h", "i", "q")
_MAX = {tc: 2 ** (8 * array(tc).itemsize) - 1 for tc in _UNSIGNED}
_MAX.update({tc: 2 ** (8 * array(tc).itemsize - 1) - 1 for tc in _SIGNED})
_MIN = {tc: 0 for tc in _UNSIGNED}
_MIN.update({tc: -(2 ** (8 * array(tc).itemsize - 1)) for tc in _SIGNED})

#: When True (see :func:`list_backend`), :func:`pack` and :func:`make`
#: build plain lists so the whole engine runs list-backed for parity
#: testing without a second code path anywhere else.
_FORCE_LISTS = False


@contextlib.contextmanager
def list_backend() -> Iterator[None]:
    """Build list-backed structures through the buffer call sites.

    Within the context every :func:`pack`/:func:`make` call returns a
    plain list; all other helpers already accept lists. The parity suite
    builds one instance inside the context and one outside, then asserts
    byte-identical results.
    """
    global _FORCE_LISTS
    previous = _FORCE_LISTS
    _FORCE_LISTS = True
    try:
        yield
    finally:
        _FORCE_LISTS = previous


def is_buffer(buf: object) -> bool:
    """Is *buf* a typed buffer (array/memoryview) rather than a list?"""
    return isinstance(buf, (array, memoryview))


def typecode_for(hi: int, lo: int = 0) -> str:
    """The narrowest typecode whose range contains ``[lo, hi]``."""
    ladder = _UNSIGNED if lo >= 0 else _SIGNED
    for tc in ladder:
        if _MIN[tc] <= lo and hi <= _MAX[tc]:
            return tc
    raise OverflowError(f"no typecode fits [{lo}, {hi}]")


def make(typecode: str = "H", values: Sequence[int] = ()) -> "array | list":
    """A fresh buffer of *typecode* holding *values*, which must fit it
    (a list under the list backend)."""
    if _FORCE_LISTS:
        return list(values)
    return array(typecode, values)


def pack(values: Sequence[int], *, hi: int | None = None,
         lo: int | None = None) -> "array | list":
    """Pack *values* into the narrowest typed buffer that fits them.

    ``hi``/``lo`` are optional known bounds; without them the values are
    scanned (C-speed ``min``/``max``). Under :func:`list_backend` this
    returns ``list(values)`` unchanged.
    """
    if _FORCE_LISTS:
        return list(values)
    if not values:
        return array(typecode_for(hi or 0, lo or 0))
    if hi is None:
        hi = max(values)
    if lo is None:
        lo = min(values)
        if lo > 0:
            lo = 0
    return array(typecode_for(hi, lo), values)


def gather(buf: "Sequence", indexes: "Sequence[int]") -> "Sequence":
    """``buf[i]`` per entry of *indexes*, as a sequence: one C-level
    ``itemgetter`` call, about twice as fast over a typed buffer as a
    ``map`` of its ``__getitem__`` (a method wrapper per call)."""
    if len(indexes) > 1:
        return itemgetter(*indexes)(buf)
    return [buf[index] for index in indexes]


def row_keys(columns: "Sequence[Sequence[int]]",
             radices: "Sequence[int] | None" = None) -> "Iterable[int]":
    """Per row of the code *columns* (one or more), its codes read as
    one mixed-radix int, digit *i* (> 0) in base ``radices[i]`` or the
    column's largest code + 1: keys are equal iff the rows are."""
    key = columns[0]
    for i, column in enumerate(columns[1:], 1):
        radix = radices[i] if radices else max(column, default=0) + 1
        key = map(add, map(mul, key, repeat(radix)), column)
    return key


def key_columns(keys: "Iterable[int]",
                radices: "Sequence[int]") -> "list[Sequence[int]]":
    """The code columns behind non-empty *keys* (:func:`row_keys` under
    *radices*), row-parallel in *keys*' iteration order."""
    columns: list = []
    for radix in reversed(radices[1:]):  # a set iterates alike twice
        columns.append(list(map(mod, keys, repeat(radix))))
        keys = list(map(floordiv, keys, repeat(radix)))
    columns.append(keys)
    return columns[::-1]


def as_list(buf: "Sequence[int]") -> list[int]:
    """The buffer's values as a plain list (tests, reprs, comparisons)."""
    return list(buf)


def _widened(buf: array, lo: int, hi: int) -> array:
    """A copy of *buf* in a typecode that also fits ``[lo, hi]``."""
    current = buf.typecode
    lo = min(lo, _MIN[current], min(buf) if len(buf) else 0)
    hi = max(hi, _MAX[current])
    return array(typecode_for(hi, lo), buf)


def _fit(buf: "array | list", values: Sequence[int]) -> "array | list":
    """*buf*, widened if any of *values* overflows its typecode."""
    if not isinstance(buf, array) or not values:
        return buf
    lo, hi = min(values), max(values)
    if _MIN[buf.typecode] <= lo and hi <= _MAX[buf.typecode]:
        return buf
    return _widened(buf, lo, hi)


def splice(buf: "array | list", lo: int, hi: int,
           values: Sequence[int]) -> "array | list":
    """Replace ``buf[lo:hi]`` with *values*; returns the live buffer.

    The workhorse of the update layer's delta maintenance: posting
    splices, column splices and block deletes all come through here.
    In-place when the typecode fits; otherwise the returned buffer is a
    widened copy and the caller must rebind.
    """
    if isinstance(buf, array):
        buf = _fit(buf, values)
        buf[lo:hi] = array(buf.typecode, values)
        return buf
    buf[lo:hi] = values
    return buf


def delete(buf: "array | list", lo: int, hi: int) -> "array | list":
    """Delete ``buf[lo:hi]`` in place; returns the buffer (for rebinds)."""
    del buf[lo:hi]
    return buf


def shift_tail(buf: "array | list", start: int,
               delta: int) -> "array | list":
    """Add *delta* to every entry from index *start* on; returns the
    live buffer (widened when the shifted labels outgrow the width)."""
    if start >= len(buf):
        return buf
    shifted = [value + delta for value in buf[start:]]
    return splice(buf, start, len(buf), shifted)


def shift_from(buf: "array | list", start: int, threshold: int,
               delta: int) -> "array | list":
    """From index *start* on, add *delta* to entries ``>= threshold``.

    The parent-pointer fix-up: a block insert/delete at node id ``q``
    shifts only references to nodes at or past ``q``.
    """
    if start >= len(buf):
        return buf
    shifted = [value + delta if value >= threshold else value
               for value in buf[start:]]
    return splice(buf, start, len(buf), shifted)


def set_at(buf: "array | list", index: int, value: int) -> "array | list":
    """Assign ``buf[index] = value``; returns the live buffer."""
    buf = _fit(buf, (value,))
    buf[index] = value
    return buf
