"""Batch kernels over sorted code buffers: galloping seek, 2-way and
k-way intersection.

The kernels are representation-agnostic — they index any sorted int
sequence (``array``, ``memoryview``, ``list``) — and are the single
implementation behind the frozen-trie child lookups and the sorted step
of the frontier join kernel (``leapfrog``, :mod:`repro.engine.algorithms`).

:func:`gallop` is the exponential-probe + bisect seek: starting from the
cursor it doubles a probe distance until the target is bracketed, then
bisects the bracket — O(log d) in the *distance moved* d, not in the
buffer length, which is what makes leapfrogging over skewed inputs
cheap (a full-range bisect pays O(log n) per seek even to advance by
one position).

:func:`intersect_many` is the batch replacement for per-element
leapfrog advancement: it runs the whole multi-way intersection of one
level's key buffers in a single call, galloping each buffer from its
own cursor, and returns the emitted codes plus the probe count for the
stats contract. Its 2-way step, :func:`intersect_pair`, is also a
function of two buffers alone, so ``map`` can drive it over two
streams of them. ``benchmarks/e2e/run.py`` times :func:`intersect_many`
as ``buffers.intersect_ms`` on ``rel_triangle`` (one intersection per
edge of the graph) and gates the triangles it closes against the join's
rows.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence


def gallop(keys: Sequence[int], code: int, lo: int = 0,
           hi: int | None = None) -> int:
    """Index of the first key ``>= code`` in ``keys[lo:hi]``.

    Exponential probe from *lo* (the cursor), then bisect within the
    bracket. Returns ``hi`` (or ``len(keys)``) when every key in range
    is smaller. Never looks left of *lo* — seeks only move forward.
    """
    n = len(keys) if hi is None else hi
    if lo >= n or keys[lo] >= code:
        return lo
    step = 1
    while lo + step < n and keys[lo + step] < code:
        step <<= 1
    return bisect_left(keys, code, lo + (step >> 1) + 1, min(lo + step, n))


def _empty_like(buf: Sequence[int]) -> "array | list":
    """An empty growable buffer matching *buf*'s representation."""
    if isinstance(buf, array):
        return array(buf.typecode)
    if isinstance(buf, memoryview):
        return array(buf.format)
    return []


def intersect_pair(a: Sequence[int], b: Sequence[int]) -> "list[int]":
    """The sorted intersection of two sorted duplicate-free code buffers,
    as a list.

    Drives from the smaller buffer and seeks each of its codes in the
    larger from a moving cursor: every seek is forward-only (the same
    contract as galloping) while the probe itself stays in the C bisect
    — no per-step Python pivot bookkeeping. Stops at the first code the
    larger buffer has nothing at or above.
    """
    if len(a) > len(b):
        a, b = b, a
    out: "list[int]" = []
    append = out.append
    n = len(b)
    p = 0
    for code in a:
        p = bisect_left(b, code, p, n)
        if p == n:
            break
        if b[p] == code:
            append(code)
    return out


def intersect_many(buffers: "Sequence[Sequence[int]]"
                   ) -> "tuple[Sequence[int], int]":
    """The sorted intersection of k sorted duplicate-free code buffers.

    Returns ``(codes, probes)``: the common codes (in a buffer matching
    the smallest input's representation) and the number of galloping
    probes performed — the batch analogue of the per-seek counter, so
    callers keep the instrumentation contract.

    The classic leapfrog pivot loop, but over raw buffers: the current
    pivot is galloped for in the next buffer round-robin; a miss makes
    the landing key the new pivot, a full round of hits emits it. Each
    buffer keeps its own cursor, so the total work is bounded by the sum
    of galloping distances — worst-case optimal for the intersection.
    """
    bufs = sorted(buffers, key=len)
    if not bufs or not len(bufs[0]):
        return _empty_like(bufs[0] if bufs else ()), 0
    out = _empty_like(bufs[0])
    if len(bufs) == 1:
        src = bufs[0]
        out.extend(src)
        return out, len(src)
    if len(bufs) == 2:
        # The dominant case (pairwise posting/adjacency intersection).
        # A code of the smaller buffer is probed while the larger has
        # keys at or above it, and the first one beyond stops the scan.
        small, large = bufs
        out.extend(intersect_pair(small, large))
        return out, min(len(small), bisect_right(small, large[-1]) + 1)
    k = len(bufs)
    lens = [len(buf) for buf in bufs]
    pos = [0] * k
    pivot = bufs[0][0]
    agree = 1
    index = 1  # buffer 0's head is the initial pivot; probe the next
    probes = 0
    append = out.append
    while True:
        buf = bufs[index]
        probes += 1
        p = gallop(buf, pivot, pos[index], lens[index])
        pos[index] = p
        if p == lens[index]:
            break
        key = buf[p]
        if key == pivot:
            agree += 1
            if agree == k:
                append(pivot)
                p += 1
                pos[index] = p
                if p == lens[index]:
                    break
                pivot = buf[p]
                agree = 1
        else:
            pivot = key
            agree = 1
        index += 1
        if index == k:
            index = 0
    return out, probes
