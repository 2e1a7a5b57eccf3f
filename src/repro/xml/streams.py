"""Tag streams: document-ordered node cursors over :class:`XMLNode`s.

A :class:`TagStream` is a forward cursor over the nodes of one tag (in
document order, i.e. by ``start``). Streams are built per *query node*:
the twig node's tag selects the nodes and its value predicate pre-filters
them, mirroring how structural-join systems push selections into the input
streams.

The engine-path algorithms now run on the columnar posting cursors of
:class:`repro.xml.columnar.TagPosting` (shared int arrays, binary-search
seeks); ``TagStream`` remains the node-object cursor used by the
reference implementations (:mod:`repro.xml.reference`) that serve as a
second test oracle.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.xml.model import XMLDocument, XMLNode
from repro.xml.twig import TwigNode


class TagStream:
    """A forward cursor over document-ordered nodes."""

    __slots__ = ("nodes", "position", "label")

    def __init__(self, nodes: Sequence[XMLNode], label: str = ""):
        self.nodes = list(nodes)
        self.position = 0
        self.label = label

    @classmethod
    def for_query_node(cls, document: XMLDocument,
                       query_node: TwigNode) -> "TagStream":
        """The stream of candidate nodes for one twig query node."""
        nodes = [node for node in document.nodes(query_node.tag)
                 if query_node.matches_value(node.value)]
        return cls(nodes, label=query_node.name)

    def eof(self) -> bool:
        return self.position >= len(self.nodes)

    def head(self) -> XMLNode:
        """The current node; undefined at EOF."""
        return self.nodes[self.position]

    def advance(self) -> None:
        self.position += 1

    def reset(self) -> None:
        self.position = 0

    def remaining(self) -> int:
        return len(self.nodes) - self.position

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (f"TagStream({self.label!r}, {self.position}/"
                f"{len(self.nodes)})")
