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
"""

from __future__ import annotations

from repro.relational.schema import Value
from repro.xml.model import XMLNode


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


def node_representation(node: XMLNode, use_surrogate: bool) -> Value:
    """The join-value of *node*: its typed text, or its identity when it
    has none and the attribute is structural."""
    value = node.value
    if value is None and use_surrogate:
        assert node.start is not None, "document must be indexed"
        return NodeSurrogate(node.start)
    return value


def erase_surrogates(row: tuple) -> tuple:
    """Map surrogates back to None (the value-level semantics)."""
    return tuple(None if isinstance(value, NodeSurrogate) else value
                 for value in row)


def erased_table(dictionary, values: tuple) -> tuple:
    """The decode table *values* with surrogates erased, so decoding a
    column through it erases as it goes. Built once per *dictionary* and
    remembered on it (a worker's instance shell has none: None)."""
    if dictionary is None:
        return erase_surrogates(values)
    if dictionary._erased is None:
        dictionary._erased = erase_surrogates(values)
    return dictionary._erased
