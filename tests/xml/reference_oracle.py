"""The node-object twig oracle: a second opinion against ``naive``.

The engine path (:mod:`repro.xml.twigstack`, :mod:`repro.xml.tjfast`)
runs on :class:`~repro.xml.columnar.ColumnarDocument` arrays. The
matchers here are the original implementations that walk
:class:`~repro.xml.model.XMLNode` objects through :class:`TagStream`
cursors and decode extended Dewey labels (:class:`ExtendedDeweyLabeler`)
per element. The cross-algorithm parity suites run them beside the
registered matchers: two independently coded matchers agreeing is
stronger evidence than one. They are not registered, so no planner
picks them.

Extended Dewey (Lu et al. 2005, "TJFast") encodes a child's *tag* into
its label component, using a per-parent-tag alphabet of child tags (the
paper derives it from a DTD; :class:`ExtendedDeweyLabeler` derives it
from the document, which keeps the decoding property). Component ``k``
of a child under a parent whose alphabet has size ``m`` satisfies
``k mod m == index of the child's tag``, so a node's root tag path
decodes from its label alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from repro.errors import TwigError
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.operators import naive_multiway_join
from repro.relational.relation import Relation
from repro.xml.encoding import is_ancestor, is_parent
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.tjfast import match_path_against_tags
from repro.xml.twig import Axis, TwigNode, TwigQuery


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


_INFINITY = math.inf


def _head_start(stream: TagStream) -> float:
    return _INFINITY if stream.eof() else stream.head().start  # type: ignore[return-value]


def _head_end(stream: TagStream) -> float:
    return _INFINITY if stream.eof() else stream.head().end  # type: ignore[return-value]


def expand_chain_nodes(path: list[TwigNode],
                       stacks: dict[str, list[tuple[XMLNode, int]]],
                       leaf_node: XMLNode, leaf_pointer: int, *,
                       stats: JoinStats | None = None
                       ) -> list[tuple[XMLNode, ...]]:
    """Node-object form of :func:`repro.xml.pathstack.expand_chain`."""
    stats = ensure_stats(stats)
    solutions: list[tuple[XMLNode, ...]] = []
    chain: list[XMLNode] = [leaf_node]

    def ascend(index: int, lower: XMLNode, pointer: int) -> None:
        if index < 0:
            solutions.append(tuple(reversed(chain)))
            stats.count_emitted()
            return
        query_node = path[index]
        lower_axis = path[index + 1].axis
        stack = stacks[query_node.name]
        for entry_index in range(min(pointer + 1, len(stack))):
            node, parent_pointer = stack[entry_index]
            stats.count_comparisons()
            if lower_axis is Axis.CHILD and not is_parent(node, lower):
                continue
            if lower_axis is Axis.DESCENDANT and not is_ancestor(node, lower):
                continue
            chain.append(node)
            ascend(index - 1, node, parent_pointer)
            chain.pop()

    ascend(len(path) - 2, leaf_node, leaf_pointer)
    return solutions


def reference_twig_stack_path_solutions(
        document: XMLDocument, twig: TwigQuery, *,
        stats: JoinStats | None = None
        ) -> dict[str, list[tuple[XMLNode, ...]]]:
    """TwigStack phase 1 over node-object :class:`TagStream` cursors."""
    stats = ensure_stats(stats)
    query_nodes = twig.nodes()
    streams = {q.name: TagStream.for_query_node(document, q)
               for q in query_nodes}
    stacks: dict[str, list[tuple[XMLNode, int]]] = {
        q.name: [] for q in query_nodes}
    solutions: dict[str, list[tuple[XMLNode, ...]]] = {
        leaf.name: [] for leaf in twig.leaves()}
    paths = {leaf.name: twig.root_to_node_path(leaf.name)
             for leaf in twig.leaves()}

    def drained(query_node: TwigNode) -> bool:
        if query_node.is_leaf:
            return streams[query_node.name].eof()
        return all(drained(child) for child in query_node.children)

    def get_next(query_node: TwigNode) -> TwigNode:
        if query_node.is_leaf:
            return query_node
        active = [child for child in query_node.children
                  if not drained(child)]
        for child in active:
            candidate = get_next(child)
            if candidate is not child:
                return candidate
        max_start = max(_head_start(streams[child.name])
                        for child in query_node.children)
        own = streams[query_node.name]
        while _head_end(own) < max_start:
            own.advance()
            stats.count_seeks()
        if not active:
            return query_node
        n_min = min(active,
                    key=lambda child: _head_start(streams[child.name]))
        if _head_start(own) < _head_start(streams[n_min.name]):
            return query_node
        return n_min

    while not drained(twig.root):
        acting = get_next(twig.root)
        stream = streams[acting.name]
        if stream.eof():
            break
        element = stream.head()
        stream.advance()

        def clean(stack: list[tuple[XMLNode, int]]) -> None:
            while stack and stack[-1][0].end < element.start:
                stack.pop()

        parent = acting.parent
        if parent is not None:
            clean(stacks[parent.name])
        clean(stacks[acting.name])
        if parent is not None and not stacks[parent.name]:
            stats.count_filtered()
            continue
        pointer = len(stacks[parent.name]) - 1 if parent is not None else -1
        stacks[acting.name].append((element, pointer))
        if acting.is_leaf:
            path = paths[acting.name]
            solutions[acting.name].extend(
                expand_chain_nodes(path, stacks, element, pointer,
                                   stats=stats))
            stacks[acting.name].pop()

    for leaf_name, tuples in solutions.items():
        stats.record_stage(f"path solutions {leaf_name}", len(tuples))
    return solutions


def reference_merge_path_solutions(
        twig: TwigQuery,
        solutions: dict[str, list[tuple[XMLNode, ...]]], *,
        stats: JoinStats | None = None) -> list[dict[str, XMLNode]]:
    """Phase 2 via the unencoded naive multiway join (pre-engine merge)."""
    stats = ensure_stats(stats)
    by_start: dict[int, XMLNode] = {}
    relations: list[Relation] = []
    for leaf in twig.leaves():
        path = twig.root_to_node_path(leaf.name)
        attrs = tuple(q.name for q in path)
        rows = []
        for solution in solutions.get(leaf.name, ()):
            for node in solution:
                by_start[node.start] = node  # type: ignore[index]
            rows.append(tuple(node.start for node in solution))
        relations.append(Relation(f"path:{leaf.name}", attrs, rows))

    joined = naive_multiway_join(relations, name="twig")
    stats.record_stage("merged embeddings", len(joined))
    attrs = joined.schema.attributes
    return [
        {name: by_start[start] for name, start in zip(attrs, row)}
        for row in joined.rows
    ]


def reference_twig_stack_embeddings(document: XMLDocument, twig: TwigQuery,
                                    *, stats: JoinStats | None = None
                                    ) -> list[dict[str, XMLNode]]:
    solutions = reference_twig_stack_path_solutions(document, twig,
                                                    stats=stats)
    return reference_merge_path_solutions(twig, solutions, stats=stats)


def reference_tjfast_path_solutions(
        document: XMLDocument, twig: TwigQuery, *,
        labeler: ExtendedDeweyLabeler | None = None,
        stats: JoinStats | None = None
        ) -> dict[str, list[tuple[XMLNode, ...]]]:
    """TJFast path solutions via per-element extended-Dewey decodes."""
    stats = ensure_stats(stats)
    if labeler is None:
        labeler = ExtendedDeweyLabeler(document)
    solutions: dict[str, list[tuple[XMLNode, ...]]] = {}
    for leaf in twig.leaves():
        path = twig.root_to_node_path(leaf.name)
        found: list[tuple[XMLNode, ...]] = []
        for element, label in labeler.leaf_labels(leaf.tag):
            stats.count_seeks()
            if not leaf.matches_value(element.value):
                continue
            tags = labeler.decode(label)
            ancestry = element.path_from_root()
            for assignment in match_path_against_tags(path, tags):
                nodes = tuple(ancestry[position] for position in assignment)
                if all(q.matches_value(node.value)
                       for q, node in zip(path, nodes)):
                    found.append(nodes)
                    stats.count_emitted()
        solutions[leaf.name] = found
        stats.record_stage(f"tjfast path solutions {leaf.name}", len(found))
    return solutions


def reference_tjfast_embeddings(document: XMLDocument, twig: TwigQuery, *,
                                stats: JoinStats | None = None
                                ) -> list[dict[str, XMLNode]]:
    solutions = reference_tjfast_path_solutions(document, twig, stats=stats)
    return reference_merge_path_solutions(twig, solutions, stats=stats)
