"""Naive navigational twig matching — the correctness oracle.

Enumerates *all* embeddings of a twig into a document by brute-force
recursive search. Quadratic-ish and proud of it: every optimised matcher
(structural join pipeline, PathStack, TwigStack, TJFast) is tested against
this implementation.

An embedding maps each twig node name to an XML node such that tags and
value predicates match and every edge's axis holds. Results come in two
flavours: node embeddings (:func:`match_embeddings`) and the value tuples
the paper joins on (:func:`match_relation`).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.twig import Axis, TwigNode, TwigQuery


def axis_candidates(document: XMLDocument, anchor: XMLNode | None,
                    query_node: TwigNode) -> Iterator[XMLNode]:
    """Document nodes that could match *query_node* under *anchor*.

    With no anchor (the twig root) every node of the right tag qualifies.
    """
    if anchor is None:
        yield from document.nodes(query_node.tag)
    elif query_node.axis is Axis.CHILD:
        for child in anchor.children:
            if child.tag == query_node.tag:
                yield child
    else:
        for node in anchor.descendants():
            if node.tag == query_node.tag:
                yield node


def match_embeddings(document: XMLDocument, twig: TwigQuery, *,
                     stats: JoinStats | None = None,
                     root: XMLNode | None = None
                     ) -> list[dict[str, XMLNode]]:
    """All embeddings of *twig* into *document* as name->node dicts.

    With *root* given, the twig root is pinned to that document node
    (the parallel executor's per-root morsels); the node must still
    satisfy the root's tag and value predicate, else no embedding exists.
    """
    stats = ensure_stats(stats)
    out: list[dict[str, XMLNode]] = []
    order = twig.nodes()  # pre-order: parents before children
    binding: dict[str, XMLNode] = {}
    start = 0
    if root is not None:
        query_root = order[0]
        if (root.tag != query_root.tag
                or not query_root.matches_value(root.value)):
            return out
        binding[query_root.name] = root
        start = 1

    def extend(index: int) -> None:
        if index == len(order):
            out.append(dict(binding))
            stats.count_emitted()
            return
        query_node = order[index]
        anchor = (binding[query_node.parent.name]
                  if query_node.parent is not None else None)
        for candidate in axis_candidates(document, anchor, query_node):
            stats.count_comparisons()
            if not query_node.matches_value(candidate.value):
                continue
            binding[query_node.name] = candidate
            extend(index + 1)
            del binding[query_node.name]

    extend(start)
    return out


def match_relation(document: XMLDocument, twig: TwigQuery, *,
                   name: str | None = None,
                   stats: JoinStats | None = None) -> Relation:
    """The twig's value-tuple answer: one row per embedding, projected to
    values, with duplicate value tuples collapsed (set semantics)."""
    embeddings = match_embeddings(document, twig, stats=stats)
    attrs = twig.attributes
    rows = [tuple(embedding[a].value for a in attrs)
            for embedding in embeddings]
    return Relation(name or twig.name, attrs, rows)
