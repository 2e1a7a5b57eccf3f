"""Partition planning: slicing the top-level domain into weighted morsels.

Two slicers share one greedy chunking core:

* :func:`code_slices` — half-open **code ranges** over the first join
  variable of an :class:`~repro.engine.encoded.EncodedInstance`. Every
  trie binding level 0 enumerates its top-level keys in sorted code
  order, so a range ``[lo, hi)`` of codes names an independent sub-join:
  no result row of one slice can ever be produced by another (a row's
  level-0 code lies in exactly one range), and the ranges jointly cover
  the whole domain.
* :func:`posting_slices` — ranges over the twig root's posting list in a
  :class:`~repro.xml.columnar.ColumnarDocument`. Each slice owns the
  embeddings whose root match falls in its ``start``-label interval, and
  carries the document region (``region_hi``) its subtrees span, so
  workers can restrict *every* stream to the slice's region.

Both weight their elements (rows under a top-level code; subtree extent
under a root candidate) and chunk greedily toward equal weight, so a
skewed domain — one code holding most of the tuples — does not silently
produce one giant morsel and many empty ones beyond what the key
granularity forces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from repro.engine.encoded import EncodedInstance
    from repro.xml.columnar import TagPosting

#: Morsels issued per worker: enough granularity for the work-stealing
#: queue to absorb moderate skew without drowning the pool in per-morsel
#: overhead.
DEFAULT_MORSEL_FACTOR = 4


@dataclass(frozen=True)
class CodeSlice:
    """One half-open code range ``[lo, hi)`` of the top-level attribute."""

    index: int
    lo: int
    hi: int
    weight: int

    def __repr__(self) -> str:
        return f"CodeSlice({self.index}, [{self.lo},{self.hi}), w={self.weight})"


@dataclass(frozen=True)
class PostingSlice:
    """One slice of the twig root's posting list.

    ``lo``/``hi`` bound the root candidates' ``start`` labels (half-open:
    a root match belongs to this slice iff ``lo <= start < hi``);
    ``region_hi`` is the largest ``end`` label among them, i.e. the
    document region any embedding rooted in this slice can reach.
    """

    index: int
    lo: int
    hi: int
    region_hi: int
    weight: int

    def __repr__(self) -> str:
        return (f"PostingSlice({self.index}, starts=[{self.lo},{self.hi}), "
                f"region_hi={self.region_hi}, w={self.weight})")


def choose_morsel_count(workers: int, domain: int) -> int:
    """How many morsels to cut for *workers* over a *domain*-sized axis.

    :data:`DEFAULT_MORSEL_FACTOR` morsels per worker let the
    work-stealing queue rebalance skew; the count never exceeds the
    domain (a slice needs at least one key) and collapses to 1 when
    parallelism cannot pay off.
    """
    if workers <= 1 or domain <= 1:
        return 1
    return min(DEFAULT_MORSEL_FACTOR * workers, domain)


def _subtree_rows(node) -> int:
    """Number of full rows stored beneath one trie node (iterative)."""
    total = 0
    stack = [node]
    while stack:
        current = stack.pop()
        if not current.keys:
            total += 1  # a terminal node closes exactly one row
        else:
            children = current.children
            for code in current.keys:
                stack.append(children[code])
    return total


def _root_weights(trie) -> dict[int, int]:
    """Rows beneath each root code of *trie*. A trie cannot change, so
    it is walked once and keeps the map; a slice starts from its
    parent's, a superset of its own codes."""
    weights = getattr(trie, "_weights", None)
    if weights is None:
        children = trie.root.children
        weights = trie._weights = {code: _subtree_rows(children[code])
                                   for code in trie.root.keys}
    return weights


def top_level_weights(instance: "EncodedInstance") -> dict[int, int]:
    """Per top-level code: total rows beneath it across level-0 tries.

    The weight map drives :func:`code_slices`; its keys are the union of
    the level-0 key lists, so every code any kernel can enumerate at the
    top level is covered.
    """
    weights: dict[int, int] = {}
    if not instance.order:
        return weights
    for trie_index in instance.participation[0]:
        trie = instance.tries[trie_index]
        rows = _root_weights(trie)
        for code in trie.root.keys:
            weights[code] = weights.get(code, 0) + rows[code]
    return weights


def _greedy_chunks(weights: Sequence[int], parts: int
                   ) -> list[tuple[int, int]]:
    """Chunk ``weights`` into at most ``parts`` contiguous index ranges
    of near-equal total weight (greedy; no chunk is ever empty)."""
    n = len(weights)
    parts = max(1, min(parts, n))
    chunks: list[tuple[int, int]] = []
    start = 0
    remaining = float(sum(weights))
    for part in range(parts):
        left = parts - part
        if n - start <= left:
            # One element per remaining chunk.
            chunks.extend((k, k + 1) for k in range(start, n))
            return chunks
        if left == 1:
            chunks.append((start, n))
            return chunks
        target = remaining / left
        end = start
        acc = 0.0
        # Take at least one element, stop at the fair share, and always
        # leave at least one element for each later chunk.
        while acc < target and n - end > left - 1:
            acc += weights[end]
            end += 1
        chunks.append((start, end))
        remaining -= acc
        start = end
    return chunks


def code_slices(instance: "EncodedInstance", morsels: int, *,
                weights: "dict[int, int] | None" = None
                ) -> list[CodeSlice]:
    """Cut the instance's top-level code domain into weighted ranges.

    Returns at most *morsels* half-open, contiguous, jointly covering
    ``[min_code, max_code + 1)`` ranges; an instance with an empty or
    unit top-level domain yields at most one slice. Codes between two
    keys fall into the earlier range — harmless, since no input holds
    them.
    """
    if weights is None:
        weights = top_level_weights(instance)
    if not weights:
        return []
    codes = sorted(weights)
    if morsels <= 1 or len(codes) == 1:
        return [CodeSlice(0, codes[0], codes[-1] + 1,
                          sum(weights.values()))]
    per_code = [weights[code] for code in codes]
    chunks = _greedy_chunks(per_code, morsels)
    slices: list[CodeSlice] = []
    for index, (i, j) in enumerate(chunks):
        hi = codes[j] if j < len(codes) else codes[-1] + 1
        slices.append(CodeSlice(index, codes[i], hi,
                                sum(per_code[i:j])))
    return slices


def posting_slices(posting: "TagPosting", morsels: int
                   ) -> list[PostingSlice]:
    """Cut a root-candidate posting into weighted start-label ranges.

    *posting* must be the twig root's (predicate-filtered) stream; the
    per-candidate weight is its region extent ``end - start``, a proxy
    for the matching work its subtree can generate. ``region_hi`` is the
    running maximum ``end`` so nested root candidates keep the full
    region visible to their slice.
    """
    n = len(posting.nids)
    if n == 0:
        return []
    starts, ends = posting.starts, posting.ends
    if morsels <= 1 or n == 1:
        return [PostingSlice(0, starts[0], ends[-1] + 1, max(ends),
                             sum(ends[i] - starts[i] for i in range(n)))]
    weights = [max(1, ends[i] - starts[i]) for i in range(n)]
    chunks = _greedy_chunks(weights, morsels)
    slices: list[PostingSlice] = []
    for index, (i, j) in enumerate(chunks):
        lo = starts[i]
        hi = starts[j] if j < n else max(ends) + 1
        region_hi = max(ends[i:j])
        slices.append(PostingSlice(index, lo, hi, region_hi,
                                   sum(weights[i:j])))
    return slices
