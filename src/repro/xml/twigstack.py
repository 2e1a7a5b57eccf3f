"""TwigStack (Bruno, Koudas, Srivastava 2002): holistic twig matching.

Phase 1 sweeps all query-node streams in document order, driven by
``getNext``, pushing only elements that (provably, for A-D edges) extend
to a full solution; complete root-to-leaf *path solutions* are expanded
whenever a leaf is pushed. Phase 2 merge-joins the per-leaf path-solution
lists on the shared branching query nodes.

TwigStack is worst-case optimal for ancestor-descendant-only twigs; with
parent-child edges it may produce useless path solutions — the classic
limitation the paper cites ("optimal match in twig ancestor-descendant
relationship but not in twig child-parent relationship").

Since the columnar refactor phase 1 runs on
:class:`~repro.xml.columnar.ColumnarDocument` postings (stacks of dense
int node ids, int-array region checks), and phase 2 runs through the
dictionary-encoded engine: path solutions become relations over node
identities (``start`` labels) and the merge is the registered
``generic_join`` operator, so merge stats land in the same
:class:`~repro.instrumentation.JoinStats` contract as relational joins.
This mirrors the paper's theme of treating tree data relationally. The
pre-columnar node-object implementation is kept under ``tests/`` as a
second oracle.
"""

from __future__ import annotations

import math

from repro.engine.encoded import EncodedInstance
from repro.engine.interface import get_algorithm
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.xml.columnar import columnar
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.pathstack import expand_chain
from repro.xml.twig import TwigQuery

_INFINITY = math.inf


def twig_stack_path_solutions(document: XMLDocument, twig: TwigQuery, *,
                              stats: JoinStats | None = None
                              ) -> dict[str, list[tuple[XMLNode, ...]]]:
    """Phase 1: per-leaf path solutions (node tuples, root first).

    Query nodes are flattened to pre-order indexes and the stream heads
    are cached in flat ``head_start``/``head_end`` arrays, so the
    ``getNext`` routing — the sweep's hot path — compares plain list
    entries instead of calling cursor methods.
    """
    stats = ensure_stats(stats)
    view = columnar(document)
    nodes_of = view.nodes
    ends = view.ends
    query_nodes = twig.nodes()  # pre-order: index 0 is the root
    n = len(query_nodes)
    index_of = {q.name: i for i, q in enumerate(query_nodes)}
    children = [[index_of[c.name] for c in q.children] for q in query_nodes]
    parent = [index_of[q.parent.name] if q.parent is not None else -1
              for q in query_nodes]
    #: leaves_of[i] = leaf indexes in i's query subtree (drained checks).
    leaves_of: list[list[int]] = [[] for _ in range(n)]
    for i, q in enumerate(query_nodes):
        if not q.children:
            j = i
            while j >= 0:
                leaves_of[j].append(i)
                j = parent[j]

    postings = [view.stream(q) for q in query_nodes]
    s_nids = [p.nids for p in postings]
    s_starts = [p.starts for p in postings]
    s_ends = [p.ends for p in postings]
    size = [len(p) for p in postings]
    pos = [0] * n
    head_start: list[float] = [
        s_starts[i][0] if size[i] else _INFINITY for i in range(n)]
    head_end: list[float] = [
        s_ends[i][0] if size[i] else _INFINITY for i in range(n)]
    eof = [size[i] == 0 for i in range(n)]

    stacks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    # expand_chain addresses stacks by query-node name; the dict shares
    # the same mutable list objects as the indexed view above.
    stacks_by_name = {q.name: stacks[i] for i, q in enumerate(query_nodes)}
    solutions: dict[str, list[tuple[XMLNode, ...]]] = {
        leaf.name: [] for leaf in twig.leaves()}
    paths = {index_of[leaf.name]: twig.root_to_node_path(leaf.name)
             for leaf in twig.leaves()}
    seeks = 0  # flushed in one bulk count; a call per probe is hot
    filtered = 0

    def advance(i: int) -> None:
        p = pos[i] + 1
        pos[i] = p
        if p >= size[i]:
            eof[i] = True
            head_start[i] = head_end[i] = _INFINITY
        else:
            head_start[i] = s_starts[i][p]
            head_end[i] = s_ends[i][p]

    def drained(i: int) -> bool:
        """All leaf streams in this query subtree are exhausted."""
        for leaf in leaves_of[i]:
            if not eof[leaf]:
                return False
        return True

    def get_next(i: int) -> int:
        """The query node whose stream head should be processed next.

        Fully drained child subtrees are skipped for routing (they can
        produce no further path solutions) but still count for the
        extension check: once any child subtree is drained, new elements
        of *i* are useless and its own stream is skipped ahead.
        """
        nonlocal seeks
        kids = children[i]
        if not kids:
            return i
        if len(kids) == 1:
            # Chain segment: no list building, no min/max over one entry.
            c = kids[0]
            if not drained(c):
                candidate = get_next(c)
                if candidate != c:
                    return candidate
            child_start = head_start[c]  # +inf once drained
            while head_end[i] < child_start:
                advance(i)
                seeks += 1
            if drained(c) or head_start[i] < child_start:
                return i
            return c
        active = [c for c in kids if not drained(c)]
        for c in active:
            candidate = get_next(c)
            if candidate != c:
                return candidate
        # Extension check over ALL children: a drained child contributes
        # +inf, draining this node's own stream (no new pushes possible).
        max_start = max(head_start[c] for c in kids)
        while head_end[i] < max_start:
            advance(i)
            seeks += 1
        if not active:
            return i
        n_min = min(active, key=head_start.__getitem__)
        if head_start[i] < head_start[n_min]:
            return i
        return n_min

    while not drained(0):
        acting = get_next(0)
        if eof[acting]:
            break  # defensive: routing found no processable stream
        p = pos[acting]
        nid = s_nids[acting][p]
        start = s_starts[acting][p]
        advance(acting)

        # Pop entries whose region ended before this element. Only the
        # acting node's and its parent's stacks are cleaned (branches
        # progress at different document positions, so cleaning *all*
        # stacks here would evict entries a lagging branch still
        # needs); expand_chain re-checks axes, so entries left stale
        # in other stacks can never produce wrong solutions.
        par = parent[acting]
        if par >= 0:
            stack = stacks[par]
            while stack and ends[stack[-1][0]] < start:
                stack.pop()
        stack = stacks[acting]
        while stack and ends[stack[-1][0]] < start:
            stack.pop()
        if par >= 0 and not stacks[par]:
            filtered += 1
            continue
        pointer = len(stacks[par]) - 1 if par >= 0 else -1
        stack.append((nid, pointer))
        if acting in paths:  # leaves never stay on a stack
            found = solutions[query_nodes[acting].name]
            for chain in expand_chain(paths[acting], stacks_by_name, view,
                                      nid, pointer, stats=stats):
                found.append(tuple(nodes_of[i] for i in chain))
            stack.pop()

    stats.count_seeks(seeks)
    stats.count_filtered(filtered)
    for leaf_name, tuples in solutions.items():
        stats.record_stage(f"path solutions {leaf_name}", len(tuples))
    return solutions


def merged_solution_relation(twig: TwigQuery,
                             solutions: dict[str,
                                             list[tuple[XMLNode, ...]]], *,
                             stats: JoinStats | None = None) -> Relation:
    """Phase 2 core: join the per-leaf path solutions on node identities.

    The merge runs through the encoded engine: one relation of node
    identities (``start`` labels) per leaf path, dictionary-encoded
    once, joined by the registered ``generic_join`` operator. Per-level
    stage sizes, seeks and emit counts therefore land in *stats* under
    the same contract as every relational join in the library. The
    result's rows are start labels over all twig attributes.
    """
    stats = ensure_stats(stats)
    relations: list[Relation] = []
    for leaf in twig.leaves():
        path = twig.root_to_node_path(leaf.name)
        attrs = tuple(q.name for q in path)
        rows = [tuple(node.start for node in solution)
                for solution in solutions.get(leaf.name, ())]
        relations.append(Relation(f"path:{leaf.name}", attrs, rows))

    if len(relations) == 1:
        # A linear twig has a single root-leaf path: there is nothing to
        # merge, and the path relation (already distinct) is the answer.
        joined = relations[0]
    else:
        instance = EncodedInstance.from_relations(relations,
                                                  name=f"twig:{twig.name}")
        joined = get_algorithm("generic_join").run(instance, stats=stats)
    stats.record_stage("merged embeddings", len(joined))
    return joined


def merge_path_solutions(twig: TwigQuery,
                         solutions: dict[str, list[tuple[XMLNode, ...]]], *,
                         stats: JoinStats | None = None
                         ) -> list[dict[str, XMLNode]]:
    """Phase 2: join per-leaf path solutions into full twig embeddings."""
    by_start: dict[int, XMLNode] = {
        node.start: node  # type: ignore[dict-item]
        for tuples in solutions.values()
        for solution in tuples for node in solution}
    joined = merged_solution_relation(twig, solutions, stats=stats)
    attrs = joined.schema.attributes
    return [
        {name: by_start[start] for name, start in zip(attrs, row)}
        for row in joined.rows
    ]


def twig_stack_embeddings(document: XMLDocument, twig: TwigQuery, *,
                          stats: JoinStats | None = None
                          ) -> list[dict[str, XMLNode]]:
    """All embeddings of *twig* via TwigStack (phases 1 + 2)."""
    solutions = twig_stack_path_solutions(document, twig, stats=stats)
    return merge_path_solutions(twig, solutions, stats=stats)


def solution_relation(document: XMLDocument, twig: TwigQuery,
                      solutions: dict[str, list[tuple[XMLNode, ...]]], *,
                      name: str | None = None,
                      stats: JoinStats | None = None) -> Relation:
    """Merge *solutions* and decode value rows from the columnar arrays.

    Shared by TwigStack and TJFast: the start-label rows of the merged
    relation decode through the document's pre-parsed value column —
    no ``XMLNode.value`` re-parse per result cell.
    """
    view = columnar(document)
    values = view.values
    nid_index = view.nid_index
    joined = merged_solution_relation(twig, solutions, stats=stats)
    attrs = twig.attributes
    positions = [joined.schema.attributes.index(a) for a in attrs]
    rows = [tuple(values[nid_index[row[p]]] for p in positions)
            for row in joined.rows]
    return Relation(name or twig.name, attrs, rows)


def twig_stack(document: XMLDocument, twig: TwigQuery, *,
               name: str | None = None,
               stats: JoinStats | None = None) -> Relation:
    """The twig's value-tuple answer computed by TwigStack."""
    solutions = twig_stack_path_solutions(document, twig, stats=stats)
    return solution_relation(document, twig, solutions, name=name,
                             stats=stats)
