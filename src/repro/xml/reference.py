"""Node-object twig matchers: the pre-columnar reference implementations.

The engine path (:mod:`repro.xml.twigstack`, :mod:`repro.xml.tjfast`)
runs on :class:`~repro.xml.columnar.ColumnarDocument` arrays. This module
preserves the original implementations that walk :class:`XMLNode`
objects through :class:`~repro.xml.streams.TagStream` cursors and decode
extended Dewey labels per element. They are an extra **oracle** in the
cross-algorithm parity suite (two independently coded matchers agreeing
is stronger evidence than one).

They are deliberately *not* registered with the twig-algorithm registry:
planners should never pick them.
"""

from __future__ import annotations

import math

from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.operators import naive_multiway_join
from repro.relational.relation import Relation
from repro.xml.dewey import ExtendedDeweyLabeler
from repro.xml.encoding import is_ancestor, is_parent
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.streams import TagStream
from repro.xml.tjfast import match_path_against_tags
from repro.xml.twig import Axis, TwigNode, TwigQuery

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

