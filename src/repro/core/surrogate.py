"""Node surrogates: identity bindings for valueless twig nodes.

The decomposed path relations are *value*-level: a path chain becomes the
tuple of its nodes' typed text values. For container elements with no
text (e.g. every ``orderLine`` in Figure 1) that value is ``None``, which
conflates all of them — the value join of the paths (orderLine, ISBN) and
(orderLine, price) would then pair every ISBN with every price, a
cartesian blow-up the paper's node-level analysis ("each tag consists of
n nodes") never exhibits.

XJoin therefore represents such *structural* attributes — twig attributes
that join with no relational column and no other twig — by a
:class:`NodeSurrogate` wrapping the node's identity (its region ``start``)
whenever the node has no value. Same node ⇒ same surrogate, so the path
tries still intersect correctly; different nodes stay distinct, so the
per-line linkage survives. Surrogates are erased (back to ``None``) in
the final result, preserving the value-level query semantics.

The size bound is computed over the same surrogate-aware cardinalities,
keeping Lemma 3.5 aligned with what the tries actually store.

Inside the engine an identity is an **int code**, never an object: a
:class:`NodeDictionary` is the code space of one tag of one columnar
view — the tag's distinct real values, then its valueless nodes in
document order (the ``sort_key`` order of their surrogates). Every twig
input binding an attribute by identity reads its codes there, at each
node's ``tag_ranks`` entry, so a twig's inputs agree without a merge
and nothing is hashed or ``repr``-sorted per node. A surrogate *object*
exists only once somebody decodes an un-erased identity code (the
structure validator, tests).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, count

from repro.engine.dictionary import Dictionary
from repro.relational.schema import Value


class NodeSurrogate:
    """An opaque stand-in for one XML node's identity."""

    __slots__ = ("start",)

    def __init__(self, start: int):
        self.start = start

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeSurrogate):
            return self.start == other.start
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("NodeSurrogate", self.start))

    def __repr__(self) -> str:
        return f"NodeSurrogate({self.start:012d})"


def erase_surrogates(row: tuple) -> tuple:
    """Map surrogates back to None (the value-level semantics)."""
    return tuple(None if isinstance(value, NodeSurrogate) else value
                 for value in row)


class _SurrogateValues(Sequence):
    """A decode table: ``head`` (real values), then one surrogate per
    start label of ``starts``, made when indexed."""

    def __init__(self, head: tuple, starts: Sequence[int]):
        self.head, self.starts = head, starts

    def __len__(self) -> int:
        return len(self.head) + len(self.starts)

    def __eq__(self, other: object) -> bool:
        # Two views built by racing threads give equal tables: merging
        # their dictionaries must find them equal, not enumerate them.
        return isinstance(other, _SurrogateValues) and \
            (self.head, self.starts) == (other.head, other.starts)

    def __getitem__(self, code: int) -> Value:
        offset = code - len(self.head)
        return self.head[code] if offset < 0 \
            else NodeSurrogate(self.starts[offset])


class NodeDictionary(Dictionary):
    """The identity code space of one tag's nodes (module docstring):
    the codes of its ``view.tag_dictionary(tag)`` as they stand, a
    node's at its ``view.tag_ranks`` entry. ``values`` decodes lazily
    and ``codes`` knows the real values only (an identity is never
    encoded from an object); the erased decode table is ready, so a run
    that erases allocates no surrogate."""

    __slots__ = ()

    def __init__(self, tag: str, starts: Sequence[int], dictionary: tuple):
        """*starts* is the tag's posting's start column, *dictionary*
        its ``view.tag_dictionary(tag)``."""
        head, codes, _valueless = dictionary
        identities = list(compress(starts, map(len(head).__le__, codes))) \
            if head else starts  # no real value: every node, in order
        self.attribute = tag
        self.values = _SurrogateValues(head, identities)
        self.codes = dict(zip(head, count()))
        self._merged = None
        self._erased = head + (None,) * len(identities)


def node_dictionary(view, tag: str) -> NodeDictionary:
    """The one :class:`NodeDictionary` of *tag* in the columnar *view*,
    kept with the view's other derived state."""
    found = view.derived.get(("node_dictionary", tag))
    if found is None:
        # setdefault: threads racing on a first use must agree on one.
        found = view.derived.setdefault(
            ("node_dictionary", tag),
            NodeDictionary(tag, view.postings(tag)[1],
                           view.tag_dictionary(tag)))
    return found
