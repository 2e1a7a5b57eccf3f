"""Twig pattern queries over XML documents.

A twig is a small tree of :class:`TwigNode` query nodes. Each edge carries
an :class:`Axis`: ``CHILD`` (parent-child, ``/``) or ``DESCENDANT``
(ancestor-descendant, ``//``). Following the paper, every twig node has a
*name* — the join attribute it binds — and a *tag* it matches in the
document (they coincide by default). An optional value predicate restricts
the matched element's typed text.

The decomposition of Section 3 (cut A-D edges, take root-leaf paths) is
implemented over this representation in :mod:`repro.core.decomposition`.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterator, Mapping, Sequence

from repro.errors import TwigError
from repro.relational.schema import Value


class Axis(enum.Enum):
    """The relationship between a twig node and its parent."""

    CHILD = "/"
    DESCENDANT = "//"

    def __str__(self) -> str:
        return self.value


class TwigNode:
    """One query node of a twig pattern."""

    __slots__ = ("name", "tag", "axis", "children", "parent", "predicate")

    def __init__(self, name: str, *, tag: str | None = None,
                 axis: Axis = Axis.CHILD,
                 predicate: Callable[[Value | None], bool] | None = None):
        self.name = name
        self.tag = tag if tag is not None else name
        self.axis = axis
        self.children: list[TwigNode] = []
        self.parent: TwigNode | None = None
        self.predicate = predicate

    def add(self, name: str, *, tag: str | None = None,
            axis: Axis = Axis.CHILD,
            predicate: Callable[[Value | None], bool] | None = None) -> "TwigNode":
        """Create, attach and return a child query node."""
        child = TwigNode(name, tag=tag, axis=axis, predicate=predicate)
        child.parent = self
        self.children.append(child)
        return child

    def child(self, name: str, **kwargs) -> "TwigNode":
        """Attach a P-C child (sugar for ``add(axis=Axis.CHILD)``)."""
        kwargs["axis"] = Axis.CHILD
        return self.add(name, **kwargs)

    def descendant(self, name: str, **kwargs) -> "TwigNode":
        """Attach an A-D child (sugar for ``add(axis=Axis.DESCENDANT)``)."""
        kwargs["axis"] = Axis.DESCENDANT
        return self.add(name, **kwargs)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter(self) -> Iterator["TwigNode"]:
        """Pre-order traversal of this query subtree."""
        yield self
        for child in self.children:
            yield from child.iter()

    def matches_value(self, value: Value | None) -> bool:
        """Apply the value predicate (vacuously true when absent)."""
        return self.predicate is None or bool(self.predicate(value))

    def __repr__(self) -> str:
        axis = "" if self.parent is None else str(self.axis)
        return f"TwigNode({axis}{self.name})"


class ValueSet:
    """A value predicate given by extension, the values it keeps: pure
    data, so it pickles where the closure it was read off does not.
    Values are told apart by ``repr`` — ``1``, ``1.0`` and ``True`` are
    equal and hash alike, and a NaN equals nothing, itself included."""

    __slots__ = ("kept",)

    def __init__(self, values):
        self.kept = frozenset(map(repr, values))

    def __call__(self, value: Value | None) -> bool:
        return repr(value) in self.kept


class TwigQuery:
    """A rooted twig pattern with distinct node names.

    >>> q = TwigQuery.build("A", lambda a: (a.child("B"), a.descendant("C")))
    >>> [n.name for n in q.nodes()]
    ['A', 'B', 'C']
    """

    def __init__(self, root: TwigNode, *, name: str = "X"):
        self.root = root
        self.name = name
        names = [node.name for node in root.iter()]
        if len(names) != len(set(names)):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise TwigError(
                f"twig node names must be distinct (attribute identity); "
                f"duplicated: {duplicates!r}"
            )
        self._by_name = {node.name: node for node in root.iter()}
        #: The twig's decomposition, kept by the first query over it
        #: (:mod:`repro.core.multimodel`).
        self.decomposition = None

    @classmethod
    def build(cls, root_name: str,
              builder: Callable[[TwigNode], object] | None = None, *,
              tag: str | None = None, name: str = "X") -> "TwigQuery":
        """Construct a twig by mutating a fresh root inside *builder*."""
        root = TwigNode(root_name, tag=tag)
        if builder is not None:
            builder(root)
        return cls(root, name=name)

    # -- structure accessors ----------------------------------------------

    def nodes(self) -> list[TwigNode]:
        """All query nodes, pre-order."""
        return list(self.root.iter())

    def node(self, name: str) -> TwigNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise TwigError(f"twig has no node named {name!r}") from None

    @property
    def attributes(self) -> tuple[str, ...]:
        """The attribute names bound by this twig (pre-order)."""
        return tuple(node.name for node in self.root.iter())

    def leaves(self) -> list[TwigNode]:
        return [node for node in self.root.iter() if node.is_leaf]

    def edges(self) -> list[tuple[TwigNode, TwigNode]]:
        """(parent, child) pairs over the whole twig."""
        return [(node, child) for node in self.root.iter()
                for child in node.children]

    def ad_edges(self) -> list[tuple[TwigNode, TwigNode]]:
        return [(p, c) for p, c in self.edges() if c.axis is Axis.DESCENDANT]

    def root_to_node_path(self, name: str) -> list[TwigNode]:
        """Query nodes from the root down to the named node."""
        target = self.node(name)
        chain = [target]
        while chain[-1].parent is not None:
            chain.append(chain[-1].parent)
        chain.reverse()
        return chain

    def with_predicates(self, predicates: "Mapping[str, Callable]"
                        ) -> "TwigQuery":
        """A copy whose nodes named in *predicates* test those instead."""
        clones: dict[str, TwigNode] = {}
        for node in self.root.iter():  # pre-order: a parent comes first
            make = clones[node.parent.name].add if node.parent else TwigNode
            clones[node.name] = make(
                node.name, tag=node.tag, axis=node.axis,
                predicate=predicates.get(node.name, node.predicate))
        return TwigQuery(clones[self.root.name], name=self.name)

    def __repr__(self) -> str:
        return f"TwigQuery({pattern_string(self.root)!r})"


def pattern_string(node: TwigNode) -> str:
    """Render a twig (sub)tree in the pattern syntax of
    :mod:`repro.xml.twig_parser` (e.g. ``A(/B, //C(/E))``)."""
    prefix = "" if node.parent is None else str(node.axis)
    label = node.name if node.tag == node.name else f"{node.name}={node.tag}"
    if node.is_leaf:
        return f"{prefix}{label}"
    inner = ", ".join(pattern_string(child) for child in node.children)
    return f"{prefix}{label}({inner})"
