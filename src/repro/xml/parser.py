"""XML text to the node tree: tree assembly over the token kernel.

The grammar — what is supported, the well-formedness rules, entity
decoding, every positioned error — lives in :mod:`repro.xml.scanner`
and is shared with the streaming arena builder
(:mod:`repro.xml.streaming`). This module assembles the kernel's events
into :class:`~repro.xml.model.XMLNode` trees: mixed content is
flattened (all text directly inside an element is concatenated into
``node.text``), iteratively, so deep documents cannot overflow the
Python stack.
"""

from __future__ import annotations

from repro.xml.model import XMLDocument, XMLNode
from repro.xml.scanner import decode_entities, iter_events

__all__ = ["decode_entities", "parse_document", "parse_element_tree"]


def parse_document(text: str) -> XMLDocument:
    """Parse *text* into an indexed :class:`XMLDocument`."""
    return XMLDocument(parse_element_tree(text))


def parse_element_tree(text: str) -> XMLNode:
    """Parse *text* and return the root :class:`XMLNode` (no indexing)."""
    root: XMLNode | None = None
    stack: list[XMLNode] = []
    text_parts: list[list[str]] = []
    for kind, payload, attributes in iter_events((text,)):
        if kind == "text":
            text_parts[-1].append(payload)
        elif kind == "start":
            node = XMLNode(payload, attributes)
            if stack:
                stack[-1].append(node)
            else:
                root = node
            stack.append(node)
            text_parts.append([])
        else:
            stack.pop().text = "".join(text_parts.pop())
    return root
