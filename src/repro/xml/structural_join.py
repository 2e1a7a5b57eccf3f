"""Stack-tree structural joins (Al-Khalifa et al., ICDE 2002).

The binary primitive of early XML query processors: given the nodes that
match an ancestor (or parent) pattern and the nodes that match a
descendant (or child) pattern, both in document order, emit all pairs
related by the axis in one merge pass using a stack of nested ancestors.

:func:`stack_tree_join` is the Stack-Tree-Desc variant (output sorted by
descendant) over node objects — the public binary primitive.
:func:`structural_join_pipeline` chains binary joins along a twig's
edges — the pre-holistic way to evaluate twigs, kept here as a baseline
in the twig matcher matrix — and since the columnar refactor runs
on :class:`~repro.xml.columnar.ColumnarDocument` postings: the merge
compares plain ints from the parallel start/end arrays and, when the
ancestor stack runs empty, *binary-searches* the descendant posting
forward to the next ancestor's start instead of advancing linearly.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.xml.columnar import ColumnarDocument, columnar
from repro.xml.encoding import is_ancestor, is_parent
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.twig import Axis, TwigQuery


def stack_tree_join(ancestors: Sequence[XMLNode],
                    descendants: Sequence[XMLNode], *,
                    axis: Axis = Axis.DESCENDANT,
                    stats: JoinStats | None = None
                    ) -> list[tuple[XMLNode, XMLNode]]:
    """All (ancestor, descendant) pairs satisfying *axis*.

    Inputs must be in document order (as produced by
    :meth:`XMLDocument.nodes`). Runs in O(|A| + |D| + |output|): the
    Stack-Tree-Desc algorithm.
    """
    stats = ensure_stats(stats)
    output: list[tuple[XMLNode, XMLNode]] = []
    stack: list[XMLNode] = []
    a_index = 0
    for descendant in descendants:
        # Pop finished ancestors (those that end before this descendant).
        while stack and stack[-1].end < descendant.start:
            stack.pop()
        # Push all ancestors that start before this descendant.
        while a_index < len(ancestors) and \
                ancestors[a_index].start < descendant.start:
            candidate = ancestors[a_index]
            a_index += 1
            stats.count_comparisons()
            while stack and stack[-1].end < candidate.start:
                stack.pop()
            if candidate.end > descendant.start:
                stack.append(candidate)
        if not stack:
            continue
        if axis is Axis.DESCENDANT:
            for ancestor in stack:
                if is_ancestor(ancestor, descendant):
                    output.append((ancestor, descendant))
                    stats.count_emitted()
        else:
            # Parent-child: only the innermost stack entry can be the
            # parent; check the level constraint.
            ancestor = stack[-1]
            if is_parent(ancestor, descendant):
                output.append((ancestor, descendant))
                stats.count_emitted()
    return output


def stack_tree_join_postings(view: ColumnarDocument,
                             a_nids: Sequence[int], a_starts: Sequence[int],
                             a_ends: Sequence[int],
                             d_nids: Sequence[int], d_starts: Sequence[int],
                             d_ends: Sequence[int], *,
                             axis: Axis = Axis.DESCENDANT,
                             stats: JoinStats | None = None
                             ) -> list[tuple[int, int]]:
    """Stack-Tree-Desc over columnar postings, emitting node-id pairs.

    Same output as :func:`stack_tree_join` but over parallel int arrays;
    whenever the ancestor stack runs empty the descendant cursor jumps
    by binary search to the next ancestor's start.
    """
    stats = ensure_stats(stats)
    levels = view.levels
    output: list[tuple[int, int]] = []
    stack_nids: list[int] = []
    stack_ends: list[int] = []
    n_a, n_d = len(a_nids), len(d_nids)
    a_i = d_i = 0
    while d_i < n_d:
        d_start = d_starts[d_i]
        # Pop finished ancestors (those that end before this descendant).
        while stack_ends and stack_ends[-1] < d_start:
            stack_ends.pop()
            stack_nids.pop()
        # Push all ancestors that start before this descendant.
        while a_i < n_a and a_starts[a_i] < d_start:
            candidate_start = a_starts[a_i]
            candidate_end = a_ends[a_i]
            stats.count_comparisons()
            while stack_ends and stack_ends[-1] < candidate_start:
                stack_ends.pop()
                stack_nids.pop()
            if candidate_end > d_start:
                stack_nids.append(a_nids[a_i])
                stack_ends.append(candidate_end)
            a_i += 1
        if not stack_nids:
            if a_i >= n_a:
                break  # no ancestor can ever open again
            # Binary-search seek: no open ancestor, so no descendant
            # before the next ancestor's start can produce a pair.
            skip_to = bisect_left(d_starts, a_starts[a_i], d_i + 1)
            stats.count_seeks()
            d_i = skip_to
            continue
        d_nid = d_nids[d_i]
        d_end = d_ends[d_i]
        if axis is Axis.DESCENDANT:
            for position, a_nid in enumerate(stack_nids):
                if d_end < stack_ends[position]:
                    output.append((a_nid, d_nid))
                    stats.count_emitted()
        else:
            # Parent-child: only the innermost stack entry can be the
            # parent; check the level constraint.
            a_nid = stack_nids[-1]
            if d_end < stack_ends[-1] and \
                    levels[d_nid] == levels[a_nid] + 1:
                output.append((a_nid, d_nid))
                stats.count_emitted()
        d_i += 1
    return output


def _edge_joined(view: ColumnarDocument, twig: TwigQuery,
                 stats: JoinStats) -> Relation:
    """Join all per-edge pair relations on the shared twig attributes.

    Rows carry node identities (``start`` labels); the caller decodes
    them to values or nodes.
    """
    starts = view.starts
    streams = {q.name: view.stream(q) for q in twig.nodes()}

    relations: list[Relation] = []
    for upper, lower in twig.edges():
        a, d = streams[upper.name], streams[lower.name]
        pairs = stack_tree_join_postings(
            view, a.nids, a.starts, a.ends, d.nids, d.starts, d.ends,
            axis=lower.axis, stats=stats)
        edge_relation = Relation(
            f"{upper.name}->{lower.name}", (upper.name, lower.name),
            [(starts[a_nid], starts[d_nid]) for a_nid, d_nid in pairs])
        stats.record_stage(edge_relation.name, len(edge_relation))
        relations.append(edge_relation)

    joined = relations[0]
    for relation in relations[1:]:
        joined = joined.natural_join(relation)
        stats.record_stage(joined.name, len(joined))
    return joined


def structural_join_pipeline(document: XMLDocument, twig: TwigQuery, *,
                             stats: JoinStats | None = None) -> Relation:
    """Evaluate a twig as a tree of binary structural joins.

    Produces the same value-tuple relation as
    :func:`repro.xml.navigation.match_relation`, but computes it the
    pre-2002 way: one binary structural join per twig edge, stitched
    together with relational joins on node identities. Each edge's pair
    list is materialised, so intermediate results can far exceed the final
    output — this is exactly the weakness holistic twig joins (and the
    paper's XJoin) address.
    """
    stats = ensure_stats(stats)
    view = columnar(document)
    values = view.values
    if not twig.edges():  # single-node twig
        only = twig.root
        stream = view.stream(only)
        rows = [(values[nid],) for nid in stream.nids]
        return Relation(twig.name, (only.name,), rows)

    joined = _edge_joined(view, twig, stats)
    attrs = twig.attributes
    nid_by_start = view.nid_by_start
    value_rows = []
    for row in joined.project(attrs).rows:
        value_rows.append(tuple(values[nid_by_start(start)]  # type: ignore[index]
                                for start in row))
    return Relation(twig.name, attrs, value_rows)


def structural_join_embeddings(document: XMLDocument, twig: TwigQuery, *,
                               stats: JoinStats | None = None
                               ) -> list[dict[str, XMLNode]]:
    """All embeddings of *twig* recovered from the edge-join pipeline."""
    stats = ensure_stats(stats)
    view = columnar(document)
    nodes_of = view.nodes
    if not twig.edges():  # single-node twig
        only = twig.root
        stream = view.stream(only)
        return [{only.name: nodes_of[nid]} for nid in stream.nids]

    joined = _edge_joined(view, twig, stats)
    attrs = joined.schema.attributes
    nid_by_start = view.nid_by_start
    return [
        {name: nodes_of[nid_by_start(start)]  # type: ignore[index]
         for name, start in zip(attrs, row)}
        for row in joined.rows
    ]
