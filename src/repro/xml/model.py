"""The XML document model.

A document is a tree of :class:`XMLNode` elements. Nodes carry a tag, an
attribute dict, text content, and children. The region label fields
(``start``, ``end``, ``level``) are filled in by
:func:`repro.xml.encoding.annotate_regions`; they default to ``None``
until a document is frozen via :meth:`XMLDocument.reindex`.

Node *values*: the paper joins XML elements with relational attributes on
the element's typed text content (Figure 1: ``ISBN: 978-3-16-1``,
``price: 30``). :attr:`XMLNode.value` exposes exactly that — the stripped
text revived as int/float when it looks numeric.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Mapping, Sequence

from repro.relational.schema import parse_value
from repro.relational.schema import Value


class XMLNode:
    """One element of an XML tree."""

    __slots__ = ("tag", "attributes", "text", "children", "parent",
                 "start", "end", "level")

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
    """A rooted XML tree plus its region labels.

    Construction freezes the tree: every node gets its region label
    once. The document keeps no per-node index of its own — the tree is
    one, and the columnar :attr:`view` is the other. Mutate the tree
    only through :meth:`reindex`, which relabels everything — or
    through the delta layer (:mod:`repro.updates.documents`), which
    patches the labels and :attr:`view` in place and calls
    :meth:`bump_version`.
    """

    def __init__(self, root: XMLNode):
        self.root = root
        self.version = 0
        #: The columnar view (:func:`repro.xml.columnar.columnar`), built
        #: on first use and dropped by :meth:`reindex`.
        self.view = None
        self.reindex()

    def reindex(self) -> None:
        """(Re)compute the region labels after tree mutation.

        Bumps :attr:`version` and drops :attr:`view` with all it has
        derived (:mod:`repro.xml.columnar`).
        """
        self.version += 1
        self.view = None
        # Imported here to avoid a cycle: encoding works on raw nodes.
        from repro.xml.encoding import annotate_regions

        annotate_regions(self.root)

    def bump_version(self) -> int:
        """Advance :attr:`version` without recomputing anything.

        For the update layer only: it patches the labels and
        :attr:`view` itself, then bumps the version so a version stamp
        (the planner's memoised :class:`~repro.engine.planner.
        QueryStatistics`, a session's held delta plans) never matches a
        pre-mutation one.
        """
        self.version += 1
        return self.version

    # -- accessors ---------------------------------------------------------

    def nodes(self, tag: str | None = None) -> list[XMLNode]:
        """All nodes in document order, optionally restricted to *tag*.

        A walk of the tree, not a read of :attr:`view`: the ``naive``
        oracle enumerates through here and stays independent of the
        columnar state it checks.
        """
        if tag is None:
            return list(self.root.iter())
        return self.root.find_all(tag)

    def tag_count(self, tag: str) -> int:
        return len(self.nodes(tag))

    def node_by_start(self, start: int) -> XMLNode | None:
        """The node whose region ``start`` label equals *start*, or None.

        Start labels identify nodes uniquely within a version, and the
        delta layer's patches keep the labeling canonical (contiguous
        pre-order), so the same label addresses the corresponding node
        in any rebuild or clone of the same logical version — the query
        service's wire-level node addressing relies on exactly this.
        Descends from the root into the last child starting at or
        before *start* — in pre-order that child is the wanted node or
        its ancestor; a label no node starts at runs out of children.
        """
        node = self.root
        while node.start != start:
            position = bisect_right(node.children, start,
                                    key=lambda child: child.start)
            if position == 0:
                return None
            node = node.children[position - 1]
        return node

    def size(self) -> int:
        """Total number of elements (the root spans ``2 * size`` labels)."""
        return (self.root.end + 1) // 2

    def __repr__(self) -> str:
        return f"XMLDocument(root=<{self.root.tag}>, {self.size()} nodes)"


def element(tag: str, *children: XMLNode, text: str = "",
            attributes: Mapping[str, str] | None = None) -> XMLNode:
    """Terse constructor for building documents in code and tests.

    >>> tree = element("a", element("b", text="1"), element("c", text="2"))
    >>> [child.tag for child in tree.children]
    ['b', 'c']
    """
    return XMLNode(tag, attributes, text, children)
