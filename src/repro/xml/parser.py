"""XML text to the node tree: tree assembly over the token kernel.

The grammar — what is supported, the well-formedness rules, entity
decoding, every positioned error — lives in :mod:`repro.xml.scanner`
and is shared with the streaming arena builder
(:mod:`repro.xml.streaming`). This module's handlers assemble the
kernel's calls into :class:`~repro.xml.model.XMLNode` trees: mixed
content is flattened (all text directly inside an element is
concatenated into ``node.text``; a leaf's text is its text),
iteratively, so deep documents cannot overflow the Python stack.
"""

from __future__ import annotations

from repro.xml.model import XMLDocument, XMLNode
from repro.xml.scanner import decode_entities, scan_windows

__all__ = ["decode_entities", "parse_document", "parse_element_tree"]


def parse_document(text: str) -> XMLDocument:
    """Parse *text* into an indexed :class:`XMLDocument`."""
    return XMLDocument(parse_element_tree(text))


class _TreeBuilder(list):
    """The token kernel's handlers: a stack of (open node, its text
    parts); each node is attached to its parent as it opens."""

    def start(self, name: str, attributes: dict[str, str]) -> None:
        self.append((self.leaf(name, attributes, ""), []))

    def text(self, decoded: str) -> None:
        self[-1][1].append(decoded)

    def end(self, _name: str) -> None:
        node, parts = self.pop()
        node.text = "".join(parts)

    def leaf(self, name: str, attributes: dict, decoded: str) -> XMLNode:
        node = XMLNode(name, attributes, decoded)
        if self:
            self[-1][0].append(node)
        else:
            self.root = node
        return node


def parse_element_tree(text: str) -> XMLNode:
    """Parse *text* and return the root :class:`XMLNode` (no indexing)."""
    builder = _TreeBuilder()
    for _window in scan_windows((text,), builder):
        pass
    return builder.root
