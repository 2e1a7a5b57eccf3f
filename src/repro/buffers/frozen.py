"""Frozen CSR tries: an EncodedTrie flattened into per-level buffers.

A trie of depth d flattens into ``d`` sorted key buffers plus ``d - 1``
child-offset buffers (classic CSR): ``levels[l]`` concatenates every
level-``l`` node's keys in global order, and ``offsets[l][g]`` /
``offsets[l][g + 1]`` bound the children (in ``levels[l]``) of the key
at *global* index ``g`` of level ``l - 1``. A node is then just
``(level, lo, hi)`` — three ints — and a child lookup is one
:func:`~repro.buffers.kernels.gallop` in the parent's span plus two
offset reads.

This is the layout the shared-memory transport publishes: flat buffers
copy into a segment verbatim, and workers rebuild the trie as
:class:`FrozenTrie` over zero-copy ``memoryview`` casts. The node
adapters (:class:`FrozenTrieNode`, whose ``children`` satisfies the
mapping surface the kernels probe) make a frozen trie a drop-in
``root`` for :class:`~repro.engine.encoded.EncodedTrie` shells: every
registered join kernel and the executor's slicing run on them
unchanged. Frozen tries are read-only — the update layer splices the
mutable owner and republishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.buffers.kernels import gallop
from repro.buffers.layout import pack

if TYPE_CHECKING:
    from repro.engine.encoded import EncodedTrie


@dataclass
class FrozenTrieLayout:
    """The flat buffers of one frozen trie, ready for publication.

    ``levels[l]`` holds the concatenated keys of depth-``l`` nodes;
    ``offsets[l]`` (for ``l >= 1``; index 0 is ``None``) maps global key
    index at level ``l - 1`` to its child span in ``levels[l]`` and has
    ``len(levels[l - 1]) + 1`` entries.
    """

    name: str
    order: tuple[str, ...]
    size: int
    levels: "list[Sequence[int]]"
    offsets: "list[Sequence[int] | None]"


def freeze_trie(trie: "EncodedTrie") -> FrozenTrieLayout:
    """Flatten *trie* into the CSR buffers of a :class:`FrozenTrieLayout`.

    One breadth-first pass per level: the frontier at level ``l`` lists
    the nodes whose keys are level-``l`` codes, in the global key order
    of level ``l - 1`` — exactly the CSR invariant.
    """
    levels: list[Sequence[int]] = []
    offsets: "list[Sequence[int] | None]" = []
    frontier = [trie.root]
    for level in range(trie.depth):
        if level > 0:
            running = 0
            offs = [0]
            for node in frontier:
                running += len(node.keys)
                offs.append(running)
            offsets.append(pack(offs))
        else:
            offsets.append(None)
        keys: list[int] = []
        next_frontier = []
        for node in frontier:
            keys.extend(node.keys)
            children = node.children
            for code in node.keys:
                next_frontier.append(children[code])
        levels.append(pack(keys))
        frontier = next_frontier
    return FrozenTrieLayout(trie.name, trie.order, trie.size,
                            levels, offsets)


class FrozenTrie:
    """A read-only trie over CSR buffers (arrays or memoryviews)."""

    __slots__ = ("name", "order", "size", "levels", "offsets")

    def __init__(self, name: str, order: Sequence[str], size: int,
                 levels: "Sequence[Sequence[int]]",
                 offsets: "Sequence[Sequence[int] | None]"):
        self.name = name
        self.order = tuple(order)
        self.size = size
        self.levels = list(levels)
        self.offsets = list(offsets)

    @classmethod
    def from_layout(cls, layout: FrozenTrieLayout) -> "FrozenTrie":
        """Wrap a freshly frozen layout (local, non-shared use)."""
        return cls(layout.name, layout.order, layout.size,
                   layout.levels, layout.offsets)

    @property
    def depth(self) -> int:
        """The trie's level count (= the arity of its rows)."""
        return len(self.order)

    def root(self) -> "FrozenTrieNode":
        """The root adapter node (its keys are the level-0 buffer)."""
        top = self.levels[0] if self.levels else ()
        return FrozenTrieNode(self, 0, 0, len(top))


class FrozenTrieNode:
    """One CSR span presenting the ``EncodedTrieNode`` surface.

    ``keys`` is a zero-copy slice of the level buffer; ``children`` is a
    :class:`_FrozenChildren` lookup over the same span. ``(level, lo,
    hi)`` identify the span globally, which is what lets a child lookup
    read the offset buffer directly.
    """

    __slots__ = ("keys", "children", "level", "lo", "hi")

    def __init__(self, trie: FrozenTrie, level: int, lo: int, hi: int):
        buf = trie.levels[level] if level < len(trie.levels) else ()
        if isinstance(buf, memoryview):
            self.keys: Sequence[int] = buf[lo:hi]
        else:
            # arrays copy on slice; memoryview-wrap for zero-copy spans
            self.keys = memoryview(buf)[lo:hi] if lo or hi != len(buf) \
                else buf
        self.children = _FrozenChildren(trie, level, lo, hi)
        self.level = level
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return self.hi - self.lo


class _FrozenChildren:
    """The child-lookup mapping of one frozen span.

    Satisfies exactly the operations the kernels use on
    ``EncodedTrieNode.children``: ``get``, ``[]``, ``in``, ``len`` and
    ``keys()``, keyed by the span's own codes. Lookups gallop the span
    and follow the offset buffer; the terminal level (no deeper keys)
    maps every code to a shared empty node.
    """

    __slots__ = ("_trie", "_level", "_lo", "_hi")

    def __init__(self, trie: FrozenTrie, level: int, lo: int, hi: int):
        self._trie = trie
        self._level = level
        self._lo = lo
        self._hi = hi

    def _find(self, code: int) -> int:
        """Global index of *code* in the span, or -1 when absent."""
        trie = self._trie
        if self._level >= len(trie.levels):
            return -1
        keys = trie.levels[self._level]
        g = gallop(keys, code, self._lo, self._hi)
        if g >= self._hi or keys[g] != code:
            return -1
        return g

    def get(self, code: int, default=None):
        """The child node of *code*, or *default* when absent."""
        g = self._find(code)
        if g < 0:
            return default
        trie = self._trie
        below = self._level + 1
        if below >= len(trie.levels):
            return _terminal_node(trie)
        offs = trie.offsets[below]
        return FrozenTrieNode(trie, below, offs[g], offs[g + 1])

    def __getitem__(self, code: int):
        child = self.get(code)
        if child is None:
            raise KeyError(code)
        return child

    def __contains__(self, code: int) -> bool:
        return self._find(code) >= 0

    def __len__(self) -> int:
        return self._hi - self._lo

    def keys(self) -> "set[int]":
        """The span's codes as a set — what ``dict.keys()`` is to the
        frontier kernel's C-level intersections. A copy, O(span): the
        trie is read-only, so it cannot go stale."""
        levels = self._trie.levels
        return set(levels[self._level][self._lo:self._hi]) \
            if self._level < len(levels) else set()


def _terminal_node(trie: FrozenTrie) -> FrozenTrieNode:
    """The (shared-shape) empty node below a last-level key."""
    return FrozenTrieNode(trie, len(trie.levels), 0, 0)
