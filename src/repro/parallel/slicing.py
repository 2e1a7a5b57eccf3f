"""Slice views: the per-morsel restriction of encoded artifacts.

Two restriction families, both **shallow** — a slice view shares the
parent's arrays/dicts and re-points only the top of the structure, so
building one costs O(log n) bisects, not a rebuild:

* :func:`sliced_instance` — an :class:`~repro.engine.encoded.
  EncodedInstance` whose level-0 tries enumerate only the codes in
  ``[lo, hi)``. Kernels run unchanged: enumeration is driven by the
  (sliced) sorted key list, while hashed probes against the shared child
  maps can only be reached through enumerated keys.
* :class:`SlicedColumnarView` — a :class:`~repro.xml.columnar.
  ColumnarDocument` whose root query-node stream is cut to the slice's
  root candidates and every other stream to the slice's document region.
  Algorithms see a *superset* of the slice's embeddings (a region can
  also contain stragglers rooted in an earlier slice); the executor's
  final root-range filter makes the partition exact.

``detach=True`` turns a trie slice self-contained (children restricted
to the sliced keys), for callers that want to serialize or retain one
slice's encoded segment without dragging the whole trie along. The
executor itself never ships slices: slicing happens worker-side.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

from repro.engine.encoded import EncodedInstance, EncodedTrie, EncodedTrieNode
from repro.xml.columnar import ColumnarDocument, TagPosting

if TYPE_CHECKING:
    from repro.xml.twig import TwigNode, TwigQuery


# ---------------------------------------------------------------------------
# encoded-trie slices (relational + multi-model kernels)
# ---------------------------------------------------------------------------

def sliced_trie(trie: EncodedTrie, lo: int, hi: int, *,
                detach: bool = False) -> EncodedTrie:
    """A view of *trie* whose root keys are restricted to ``[lo, hi)``.

    The root node is replaced; below it everything is shared with the
    parent trie (or, with ``detach``, restricted to the sliced keys so
    the view pickles as a self-contained segment).
    """
    keys = trie.root.keys
    i = bisect_left(keys, lo)
    j = bisect_left(keys, hi)
    root = EncodedTrieNode()
    root.keys = keys[i:j]
    if detach:
        children = trie.root.children
        root.children = {code: children[code] for code in root.keys}
    else:
        root.children = trie.root.children
    clone = EncodedTrie.__new__(EncodedTrie)
    clone.name = trie.name
    clone.order = trie.order
    clone.root = root
    # Rows per root code are the parent's: the children are shared, and
    # so are the last-level masks and the record of them (a detached
    # slice's nodes are a subset: it starts from what the parent knows).
    clone._weights = getattr(trie, "_weights", None)
    masks = getattr(trie, "_masks", None)
    clone._masks = [masks[0]] if detach and masks else masks
    # Kernels drive enumeration from the key lists and never read
    # ``size``; keep the parent's value as a documented upper bound.
    clone.size = trie.size if len(root.keys) else 0
    return clone


def sliced_instance(instance: EncodedInstance, lo: int, hi: int, *,
                    detach: bool = False) -> EncodedInstance:
    """A view of *instance* restricted to top-level codes in ``[lo, hi)``.

    Only the tries binding level 0 of the global order are sliced; all
    other structure (dictionaries, participation map, twig filters,
    decode tables) is shared. Running any kernel over the view yields
    exactly the serial result rows whose level-0 code falls in the
    range.
    """
    level0 = set(instance.participation[0]) if instance.order else set()
    clone = EncodedInstance.__new__(EncodedInstance)
    clone.name = instance.name
    clone.order = instance.order
    clone.attributes = instance.attributes
    clone.dictionaries = instance.dictionaries
    clone.tries = [
        sliced_trie(trie, lo, hi, detach=detach) if index in level0 else trie
        for index, trie in enumerate(instance.tries)]
    clone.relations = instance.relations
    clone.twigs = instance.twigs
    clone.twig_filters = instance.twig_filters
    clone.erase_structural = instance.erase_structural
    clone.participation = instance.participation
    clone._level_values = instance._level_values
    return clone


# ---------------------------------------------------------------------------
# columnar region views (twig matchers)
# ---------------------------------------------------------------------------

class SlicedColumnarView(ColumnarDocument):
    """A columnar view restricted to one root-posting slice.

    The root query node's stream keeps only candidates whose ``start``
    lies in ``[root_lo, root_hi)``; every other stream keeps entries
    with ``start`` in ``[root_lo, region_hi]`` — the document region an
    embedding rooted in the slice can reach. TJFast's path-grouped node
    lists (``nids_by_path``) are restricted to the same region.

    The view over-approximates on purpose: embeddings rooted *before*
    the slice whose subtree spans into its region may still be matched;
    the executor filters them out by the root's start label, which is
    what makes the slice partition exact (see ``docs/parallelism.md``).
    """

    __slots__ = ("root_name", "root_lo", "root_hi", "region_hi",
                 "base_streams")

    def __init__(self, base: ColumnarDocument, twig: "TwigQuery",
                 root_lo: int, root_hi: int, region_hi: int, *,
                 base_streams: "dict[str, TagPosting] | None" = None):
        # Deliberately skips ColumnarDocument.__init__: all parallel
        # arrays are shared with *base*; only the stream accessors and
        # the per-path node lists apply the restriction. ``base_streams``
        # (optional) shares predicate-filtered postings computed once
        # per job, so per-morsel views never rescan the full posting.
        for slot in ColumnarDocument.__slots__:
            setattr(self, slot, getattr(base, slot))
        # ... but not what the base has derived: these streams are
        # restricted, so nothing is kept for (or read off) the whole.
        self.derived = {}
        self.root_name = twig.nodes()[0].name
        self.root_lo = root_lo
        self.root_hi = root_hi
        self.region_hi = region_hi
        self.base_streams = base_streams
        starts = base.starts
        self.nids_by_path = [
            nids[bisect_left(nids, root_lo, key=starts.__getitem__):
                 bisect_right(nids, region_hi, key=starts.__getitem__)]
            for nids in base.nids_by_path]

    def stream(self, query_node: "TwigNode") -> TagPosting:
        """The slice-restricted posting cursor for one twig query node."""
        posting = None
        if self.base_streams is not None:
            posting = self.base_streams.get(query_node.name)
        if posting is None:
            posting = ColumnarDocument.stream(self, query_node)
        if query_node.name == self.root_name:
            i = bisect_left(posting.starts, self.root_lo)
            j = bisect_left(posting.starts, self.root_hi)
        else:
            i = bisect_left(posting.starts, self.root_lo)
            j = bisect_right(posting.starts, self.region_hi)
        return TagPosting(posting.nids[i:j], posting.starts[i:j],
                          posting.ends[i:j], label=posting.label)
