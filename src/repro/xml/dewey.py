"""Dewey and extended Dewey labelling (Lu et al. 2005, "TJFast").

Plain Dewey: the root is labelled ``()``; the i-th child of a node with
label L is labelled ``L + (i,)``. The label of a node spells out its whole
root path, which is what TJFast exploits to match path patterns from leaf
streams alone.

Extended Dewey encodes the child's *tag* into the component as well, using
a per-parent-tag alphabet of child tags (the paper derives it from a DTD;
we derive it from the document itself, which preserves the decoding
property). Component ``k`` of a child under a parent whose child-tag
alphabet has size ``m`` satisfies ``k mod m == index of the child's tag``,
so the tag path of any node can be decoded from its label alone.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import TwigError
from repro.xml.model import XMLDocument, XMLNode


def annotate_dewey(root: XMLNode) -> XMLNode:
    """Assign plain Dewey labels (tuples of child indexes) to the subtree."""
    root.dewey = ()
    stack = [root]
    while stack:
        node = stack.pop()
        assert node.dewey is not None
        for index, child in enumerate(node.children):
            child.dewey = node.dewey + (index,)
            stack.append(child)
    return root


class ExtendedDeweyLabeler:
    """Extended Dewey labels for one document.

    The per-parent-tag child alphabets are derived from the document (a
    stand-in for the DTD the original paper assumes). Labels are tuples of
    non-negative ints; :meth:`decode` recovers the full tag path of a node
    from its label alone, and :meth:`label` maps a node to its label.
    """

    def __init__(self, document: XMLDocument):
        self.document = document
        self.root_tag = document.root.tag
        # alphabet[parent_tag] = ordered distinct child tags.
        self.alphabet: dict[str, list[str]] = {}
        for node in document.root.iter():
            slots = self.alphabet.setdefault(node.tag, [])
            for child in node.children:
                if child.tag not in slots:
                    slots.append(child.tag)
        self._labels: dict[int, tuple[int, ...]] = {}
        self._assign()

    def _assign(self) -> None:
        root = self.document.root
        assert root.start is not None, "document must be indexed"
        self._labels[root.start] = ()
        stack = [root]
        while stack:
            node = stack.pop()
            label = self._labels[node.start]  # type: ignore[index]
            slots = self.alphabet.get(node.tag, [])
            width = max(len(slots), 1)
            # Per-tag running counters so k mod width == tag index.
            seen: dict[str, int] = {}
            for child in node.children:
                tag_index = slots.index(child.tag)
                repetition = seen.get(child.tag, 0)
                seen[child.tag] = repetition + 1
                component = repetition * width + tag_index
                self._labels[child.start] = label + (component,)
                stack.append(child)

    def label(self, node: XMLNode) -> tuple[int, ...]:
        """The extended Dewey label of *node*."""
        assert node.start is not None
        try:
            return self._labels[node.start]
        except KeyError:
            raise TwigError(
                f"node <{node.tag}> is not part of the labelled document"
            ) from None

    def decode(self, label: tuple[int, ...]) -> list[str]:
        """Recover the root-to-node tag path from a label alone."""
        path = [self.root_tag]
        current = self.root_tag
        for component in label:
            slots = self.alphabet.get(current, [])
            if not slots:
                raise TwigError(
                    f"cannot decode {label!r}: tag {current!r} has no "
                    f"children in the derived alphabet"
                )
            tag = slots[component % len(slots)]
            path.append(tag)
            current = tag
        return path

    def leaf_labels(self, tag: str) -> Iterator[tuple[XMLNode, tuple[int, ...]]]:
        """(node, label) pairs for all nodes with *tag*, document order."""
        for node in self.document.nodes(tag):
            yield node, self.label(node)
