"""The XML document model.

A document is a tree of :class:`XMLNode` elements. Nodes carry a tag, an
attribute dict, text content, and children. Label fields (``start``,
``end``, ``level``, ``dewey``) are filled in by the encoders in
:mod:`repro.xml.encoding` and :mod:`repro.xml.dewey`; they default to
``None`` until a document is frozen via :meth:`XMLDocument.reindex`.

Node *values*: the paper joins XML elements with relational attributes on
the element's typed text content (Figure 1: ``ISBN: 978-3-16-1``,
``price: 30``). :attr:`XMLNode.value` exposes exactly that — the stripped
text revived as int/float when it looks numeric.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

from repro.relational.schema import parse_value
from repro.relational.schema import Value


class XMLNode:
    """One element of an XML tree."""

    __slots__ = ("tag", "attributes", "text", "children", "parent",
                 "start", "end", "level", "dewey")

    def __init__(self, tag: str, attributes: Mapping[str, str] | None = None,
                 text: str = "", children: Sequence["XMLNode"] = ()):
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.text = text
        self.children: list[XMLNode] = []
        self.parent: XMLNode | None = None
        self.start: int | None = None
        self.end: int | None = None
        self.level: int | None = None
        self.dewey: tuple[int, ...] | None = None
        for child in children:
            self.append(child)

    def append(self, child: "XMLNode") -> "XMLNode":
        """Attach *child* as the last child and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def add(self, tag: str, text: str = "",
            attributes: Mapping[str, str] | None = None) -> "XMLNode":
        """Create, attach and return a new child element."""
        return self.append(XMLNode(tag, attributes, text))

    def copy(self) -> "XMLNode":
        """A detached structural deep copy (labels are not copied).

        Iterative, like the traversals, so pathological depth is safe.
        The copy's labels are ``None`` until a document indexes it —
        exactly the state the update layer expects of an insert.
        """
        out = XMLNode(self.tag, self.attributes, self.text)
        stack = [(self, out)]
        while stack:
            source, target = stack.pop()
            for child in source.children:
                clone = XMLNode(child.tag, child.attributes, child.text)
                target.append(clone)
                stack.append((child, clone))
        return out

    @property
    def value(self) -> Value | None:
        """Typed text content (int/float revived), or None when empty."""
        stripped = self.text.strip()
        if not stripped:
            return None
        return parse_value(stripped)

    # -- traversal -------------------------------------------------------

    def iter(self) -> Iterator["XMLNode"]:
        """Pre-order traversal of this subtree, self first (iterative)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants(self) -> Iterator["XMLNode"]:
        """All proper descendants, in document order."""
        nodes = self.iter()
        next(nodes)  # skip self
        yield from nodes

    def ancestors(self) -> Iterator["XMLNode"]:
        """Ancestors from parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def find_all(self, tag: str) -> list["XMLNode"]:
        """All nodes with *tag* in this subtree (including self)."""
        return [node for node in self.iter() if node.tag == tag]

    def path_from_root(self) -> list["XMLNode"]:
        """Nodes from the tree root down to (and including) this node."""
        chain = [self, *self.ancestors()]
        chain.reverse()
        return chain

    # -- comparisons -----------------------------------------------------

    def structure_equal(self, other: "XMLNode") -> bool:
        """Deep equality on tag/attributes/text/children (not labels)."""
        if (self.tag != other.tag or self.attributes != other.attributes
                or self.text.strip() != other.text.strip()
                or len(self.children) != len(other.children)):
            return False
        return all(a.structure_equal(b)
                   for a, b in zip(self.children, other.children))

    def __repr__(self) -> str:
        label = f" start={self.start}" if self.start is not None else ""
        return (f"XMLNode(<{self.tag}>, {len(self.children)} children"
                f"{label})")


class XMLDocument:
    """A rooted XML tree plus per-tag indexes and structural labels.

    Construction freezes the tree: region encodings, Dewey labels and tag
    streams are computed once. Mutate the tree only through
    :meth:`reindex`, which recomputes everything — or through the delta
    layer (:mod:`repro.updates.documents`), which patches the labels,
    indexes and :attr:`view` in place and calls :meth:`bump_version`.
    """

    def __init__(self, root: XMLNode):
        self.root = root
        self.version = 0
        #: The columnar view (:func:`repro.xml.columnar.columnar`), built
        #: on first use and dropped by :meth:`reindex`.
        self.view = None
        self._by_tag: dict[str, list[XMLNode]] = {}
        self._by_start: list[XMLNode] = []
        self.reindex()

    def reindex(self) -> None:
        """(Re)compute labels and indexes after tree mutation.

        Bumps :attr:`version` and drops :attr:`view` with all it has
        derived (:mod:`repro.xml.columnar`).
        """
        self.version += 1
        self.view = None
        # Imported here to avoid a cycle: encoding works on raw nodes.
        from repro.xml.dewey import annotate_dewey
        from repro.xml.encoding import annotate_regions

        annotate_regions(self.root)
        annotate_dewey(self.root)
        self._by_tag = {}
        self._by_start = []
        for node in self.root.iter():
            self._by_tag.setdefault(node.tag, []).append(node)
            self._by_start.append(node)
        # Pre-order already yields document order, so streams are sorted
        # by start position by construction.

    def bump_version(self) -> int:
        """Advance :attr:`version` without recomputing anything.

        For the update layer only: it patches labels, the ``_by_*``
        indexes and :attr:`view` itself, then bumps the version so a
        version stamp (the adaptive planner's drift ledger) never
        matches a pre-mutation one.
        """
        self.version += 1
        return self.version

    # -- indexes ---------------------------------------------------------

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(self._by_tag)

    def nodes(self, tag: str | None = None) -> list[XMLNode]:
        """All nodes in document order, optionally restricted to *tag*."""
        if tag is None:
            return list(self._by_start)
        return list(self._by_tag.get(tag, ()))

    def tag_count(self, tag: str) -> int:
        return len(self._by_tag.get(tag, ()))

    def node_by_start(self, start: int) -> XMLNode | None:
        """The node whose region ``start`` label equals *start*, or None.

        Start labels identify nodes uniquely within a version, and the
        delta layer's patches keep the labeling canonical (contiguous
        pre-order), so the same label addresses the corresponding node
        in any rebuild or clone of the same logical version — the query
        service's wire-level node addressing relies on exactly this.
        """
        from bisect import bisect_left

        nodes = self._by_start
        position = bisect_left(nodes, start, key=lambda node: node.start)
        if position < len(nodes) and nodes[position].start == start:
            return nodes[position]
        return None

    def size(self) -> int:
        """Total number of elements."""
        return len(self._by_start)

    def __repr__(self) -> str:
        return (f"XMLDocument(root=<{self.root.tag}>, {self.size()} nodes, "
                f"{len(self._by_tag)} tags)")


def element(tag: str, *children: XMLNode, text: str = "",
            attributes: Mapping[str, str] | None = None) -> XMLNode:
    """Terse constructor for building documents in code and tests.

    >>> tree = element("a", element("b", text="1"), element("c", text="2"))
    >>> [child.tag for child in tree.children]
    ['b', 'c']
    """
    return XMLNode(tag, attributes, text, children)
