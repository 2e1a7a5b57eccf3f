"""The columnar twig backend (``accel``): axes as column lookups.

A twig over node ids is a tree-shaped conjunctive query, and each of
its atoms is already an index of the
:class:`~repro.xml.columnar.ColumnarDocument`:

* a query node's candidates are its tag's posting, value predicate
  applied (:meth:`ColumnarDocument.stream`);
* a parent-child edge *is* the ``parents`` column: the lower posting
  grouped by ``parents[nid]`` (one position per upper candidate where
  the edge is functional, :meth:`ColumnarDocument.fan_out` <= 1);
* an ancestor-descendant edge *is* a contiguous slice of the lower
  posting: the entries whose ``start`` lies strictly inside the upper
  node's region, two ``bisect`` probes.

:func:`twig_frontiers` evaluates the query the way Yannakakis
evaluates an acyclic join, level at a time — the XML-side twin of
:func:`repro.engine.algorithms._frontier_join`. A **reducer** walks
the query nodes in post-order and keeps a candidate only if every
child edge has a live match, so afterwards every live candidate roots
a complete sub-embedding. An **expansion** then walks them in
pre-order over a frontier held as one column per bound query node,
:data:`CHUNK` root candidates at a time: because the frontier is
fully reduced it only ever grows, no level exceeds the embedding
count, and the whole run is O(input + output) with nothing to
intersect. Both passes are C-level ``map``/``compress``/``chain``
sweeps: Python runs per query node and per chunk, never per document
node. No edge relation is materialised and nothing is
dictionary-encoded.

Delta maintenance and slicing are inherited: candidates are read only
through ``view.stream``, so the update layer's patched views
(:mod:`repro.updates.documents`) and the worker slices
(:class:`~repro.parallel.slicing.SlicedColumnarView`) need no second
code path.

**Paid once per view version.** What the view alone determines is
kept in ``view.derived``, reset with it on every splice (a value edit
drops only the edited tag's codes, edges stay): an edge's
matches whenever both of its sides are the view's own whole
postings (:func:`_edge_index` — a predicated, reduced or sliced side is
grouped per call), and each tag's value codes
(:meth:`ColumnarDocument.tag_codes`), on which ``run`` projects: a
chunk's rows are packed into mixed-radix ints of its varying columns
(:func:`~repro.buffers.layout.row_keys`), and only the distinct keys are
decoded. :func:`axis_pairs`, the stack-tree structural join, builds
XJoin's A-D pair inputs (:mod:`repro.core.decomposition`).

``docs/accelerator.md`` documents the kernel, its counters and the
measured matcher matrix behind the planner's pick.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterator, Sequence
from itertools import chain, compress, count, repeat
from operator import ne
from time import perf_counter
from typing import TYPE_CHECKING

from repro.buffers.layout import gather, key_columns, row_keys
from repro.instrumentation import NULL_STATS, JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.xml.columnar import ColumnarDocument, TagPosting, columnar
from repro.xml.twig import Axis, TwigNode, TwigQuery

if TYPE_CHECKING:
    from repro.xml.model import XMLDocument, XMLNode

#: Root candidates expanded together: peak memory is one chunk's
#: embeddings, whatever the answer's size. Also the least this matcher
#: is handed a worker pool for
#: (:meth:`repro.parallel.executor.ParallelExecutor.run_twig`).
CHUNK = 4096


def _edge_matches(view: ColumnarDocument, upper: TagPosting,
                  lower: TagPosting, axis: Axis) -> Sequence:
    """Per candidate of *upper*, its matches along one twig edge as
    positions in *lower*: a list (P-C, the lower posting grouped by
    ``parents``) or a range (A-D, the posting slice whose starts lie
    strictly inside the region — strictly, so a node never pairs with
    itself when both query nodes share a tag); falsy when there is none.
    A functional P-C edge (:meth:`ColumnarDocument.fan_out` <= 1)
    between two whole postings is one **tuple** instead: per upper
    candidate its one match, -1 for none.
    """
    if axis is Axis.CHILD:
        whole = [view.tag_ids[p.nids[0]] for p in (upper, lower) if len(p)
                 and p.nids is view.tag_nids[view.tag_ids[p.nids[0]]]]
        if len(whole) == 2 and view.fan_out(
                *map(view.tags.__getitem__, whole)) <= 1:
            owned = dict(zip(gather(view.parents, lower.nids), count()))
            return tuple(map(owned.get, upper.nids, repeat(-1)))
        # One list per upper candidate, in posting order; every lower
        # position is appended to its parent's (or to the sink).
        groups = dict(zip(upper.nids, map(list, repeat(()))))
        owners = map(groups.get, map(view.parents.__getitem__, lower.nids),
                     repeat([]))
        deque(map(list.append, owners, count()), maxlen=0)
        return list(groups.values())
    starts = lower.starts
    return list(map(range,
                    map(bisect_right, repeat(starts), upper.starts),
                    map(bisect_left, repeat(starts), upper.ends)))


def _edge_index(view: ColumnarDocument, q: TwigNode, child: TwigNode,
                upper: TagPosting, lower: TagPosting) -> Sequence:
    """:func:`_edge_matches` for the twig edge *q* -> *child*, kept in
    ``view.derived`` per (upper tag, lower tag, axis) when both sides
    are the view's own whole postings: then the answer is a function of
    the view version alone. The test is identity with the view's posting
    arrays, which no predicate mask, reduction or worker slice keeps.
    Entries are shared between calls (and threads): read, never edited.
    """
    if upper.nids is not view.postings(q.tag)[0] \
            or lower.nids is not view.postings(child.tag)[0]:
        return _edge_matches(view, upper, lower, child.axis)
    key = ("edge", q.tag, child.tag, child.axis)
    found = view.derived.get(key)
    if found is None:  # stored whole, or not there: readers race
        found = view.derived[key] = _edge_matches(view, upper, lower,
                                                  child.axis)
    return found


def _value_codes(view: ColumnarDocument, q: TwigNode,
                 posting: TagPosting) -> "Sequence[int] | None":
    """The value codes (:meth:`ColumnarDocument.tag_codes`) of
    *posting*'s candidates, parallel to it (None for a constant column:
    the tag's dictionary holds one value): the tag's own code column
    where the posting is the whole one, read at each node's
    ``tag_ranks`` entry where it has been cut. (A gather per call for
    the whole posting too — one path — measured 4.8 -> 7.6 ms on the
    20k-record DBLP article twig and +10-17 % on XMark's chain and
    branch shapes; the predicated shape is within spread either way.)"""
    codes, dictionary = view.tag_codes(q.tag)
    if len(dictionary.values) < 2:
        return None
    if len(posting) == len(codes):
        return codes
    return list(map(codes.__getitem__, gather(view.tag_ranks, posting.nids)))


def twig_frontiers(view: ColumnarDocument, twig: TwigQuery,
                   stats: JoinStats | None = None, *, column=None
                   ) -> "Iterator[list[Sequence[int]]]":
    """All embeddings of *twig*, level at a time: yields, per chunk of
    root candidates, one column per query node (pre-order) holding, per
    embedding, the bound candidate's node id — or its entry in
    ``column(view, query node, live posting)``, a sequence parallel to
    the posting (None: the node's column is left out).

    Counters, all pure functions of the posting contents: a stage
    ``alive <name>`` per query node (its candidates left by the
    reducer) and ``expand <name>`` per frontier level (summed over the
    chunks; reduced first, so never above the embedding count);
    ``emitted`` embeddings; ``seeks`` candidates examined (postings
    read, plus one group lookup per P-C and two bisect probes per A-D
    upper candidate). Level times land in ``phase_times`` under the
    stage labels. The counters are complete once the iterator is
    exhausted and cost nothing without a collecting *stats*.
    """
    stats = ensure_stats(stats)
    counting = stats is not NULL_STATS
    nodes = twig.nodes()
    names = [q.name for q in nodes]
    live = {q.name: view.stream(q) for q in nodes}
    seeks = sum(map(len, live.values()))
    matches: dict[str, Sequence] = {}
    times = dict.fromkeys(names, 0.0)
    start = 0.0

    stats.start_timer()
    # The reducer, post-order (children sit after parents in pre-order).
    for q in reversed(nodes):
        if counting:
            start = perf_counter()
        posting = live[q.name]
        found = [_edge_index(view, q, c, posting, live[c.name])
                 for c in q.children]
        seeks += sum(len(posting) * (1 if c.axis is Axis.CHILD else 2)
                     for c in q.children)
        # A functional edge (a tuple) holds -1 where a match lacks.
        masks = [list(map(ne, edge, repeat(-1))) if isinstance(edge, tuple)
                 else edge for edge in found
                 if not isinstance(edge, tuple) or -1 in edge]
        if not all(map(all, masks)):  # some candidate lacks a match
            keep = masks[0] if len(masks) == 1 \
                else list(map(all, zip(*masks)))
            live[q.name] = TagPosting(list(compress(posting.nids, keep)),
                                      list(compress(posting.starts, keep)),
                                      list(compress(posting.ends, keep)))
            found = [type(edge)(compress(edge, keep)) for edge in found]
        matches.update(zip((c.name for c in q.children), found))
        if counting:
            stats.record_stage(f"alive {q.name}", len(live[q.name]))
            stats.record_phase(f"alive {q.name}", perf_counter() - start)

    # The expansion, pre-order, a chunk of live roots at a time.
    parent_index = [names.index(q.parent.name) for q in nodes[1:]]
    read = [column(view, q, live[q.name]) if column
            else live[q.name].nids for q in nodes]
    alive = dict.fromkeys(names, 0)
    roots = len(live[names[0]])
    for lo in range(0, roots, CHUNK):
        columns: list = [range(lo, min(lo + CHUNK, roots))]
        alive[names[0]] += len(columns[0])
        for name, upper in zip(names[1:], parent_index):
            if counting:
                start = perf_counter()
            edge, bound = matches[name], columns[upper]
            if isinstance(edge, tuple):  # functional: one match each
                # (the root's column is a range until an edge repeats it)
                grown = edge[bound.start:bound.stop] \
                    if isinstance(bound, range) else gather(edge, bound)
            else:
                found = list(map(edge.__getitem__, bound))
                grown = list(chain.from_iterable(found))
                if len(grown) != len(found):  # else one match each: as is
                    counts = list(map(len, found))
                    columns = [list(chain.from_iterable(map(repeat, column,
                                                            counts)))
                               for column in columns]
            columns.append(grown)
            alive[name] += len(grown)
            if counting:
                times[name] += perf_counter() - start
        yield [list(map(entry.__getitem__, positions))
               for entry, positions in zip(read, columns)
               if entry is not None]
    stats.stop_timer()

    stats.count_seeks(seeks)
    stats.count_emitted(alive[names[-1]])
    for name in names:
        stats.record_stage(f"expand {name}", alive[name])
        stats.record_phase(f"expand {name}", times[name])


# ---------------------------------------------------------------------------
# axis pairs, for XJoin's pair inputs
# ---------------------------------------------------------------------------

def axis_pairs(upper: TagPosting, lower: TagPosting,
               levels, lower_axis: Axis,
               stats: JoinStats | None = None) -> list[tuple[int, int]]:
    """All ``(pre_upper, pre_lower)`` pairs satisfying the axis predicate.

    One merge over both postings in document order: upper candidates
    push onto a stack of currently-open regions (strictly increasing
    levels — the open-ancestor chain restricted to the upper tag);
    regions that closed before the lower candidate pop off. Every
    surviving stack entry contains the lower candidate (proper nesting:
    ``pre_u < pre_l ≤ post_u`` forces full containment), which is
    exactly the DESCENDANT range predicate; CHILD additionally selects
    the unique entry at ``level_l - 1`` by binary search on the stack's
    sorted levels. The strict ``pre_u < pre_l`` push bound keeps a node
    from pairing with itself when both query nodes share a tag.
    """
    stats = ensure_stats(stats)
    a_nids, a_starts, a_ends = upper.nids, upper.starts, upper.ends
    b_nids, b_starts = lower.nids, lower.starts
    pairs: list[tuple[int, int]] = []
    stack_starts: list[int] = []
    stack_ends: list[int] = []
    stack_levels: list[int] = []
    child = lower_axis is Axis.CHILD
    i, n = 0, len(a_starts)
    comparisons = 0
    for j in range(len(b_starts)):
        sb = b_starts[j]
        while i < n and a_starts[i] < sb:
            sa = a_starts[i]
            while stack_ends and stack_ends[-1] < sa:
                stack_starts.pop()
                stack_ends.pop()
                stack_levels.pop()
                comparisons += 1
            stack_starts.append(sa)
            stack_ends.append(a_ends[i])
            stack_levels.append(levels[a_nids[i]])
            comparisons += 1
            i += 1
        while stack_ends and stack_ends[-1] < sb:
            stack_starts.pop()
            stack_ends.pop()
            stack_levels.pop()
            comparisons += 1
        comparisons += 1
        if not stack_starts:
            continue
        if child:
            want = levels[b_nids[j]] - 1
            k = bisect_left(stack_levels, want)
            if k < len(stack_levels) and stack_levels[k] == want:
                pairs.append((stack_starts[k], sb))
        else:
            pairs.extend((sa, sb) for sa in stack_starts)
    stats.count_comparisons(comparisons)
    return pairs


class AccelTwigAlgorithm:
    """Twig matching level at a time on the columnar arrays."""

    name = "accel"
    optimal_for = ("every twig: a reducer pass then a frontier that only "
                   "grows, O(input + output) on either axis")
    def supports(self, twig: TwigQuery) -> bool:
        return True

    def embeddings(self, document: "XMLDocument", twig: TwigQuery, *,
                   stats: JoinStats | None = None
                   ) -> "list[dict[str, XMLNode]]":
        view = columnar(document)
        names, node_of = twig.attributes, view.nodes.__getitem__
        out: "list[dict[str, XMLNode]]" = []
        for columns in twig_frontiers(view, twig, stats):
            bound = zip(*[map(node_of, column) for column in columns])
            out.extend(map(dict, map(zip, repeat(names), bound)))
        return out

    def run(self, document: "XMLDocument", twig: TwigQuery, *,
            name: str | None = None,
            stats: JoinStats | None = None) -> Relation:
        view = columnar(document)
        tables = [view.tag_codes(q.tag)[1].values for q in twig.nodes()]
        radices = [len(table) for table in tables if len(table) > 1]
        keys: set[int] = set()  # distinct rows, as packed value codes
        for columns in twig_frontiers(view, twig, stats,
                                      column=_value_codes):
            # A chunk has embeddings: with every column constant, one.
            keys.update(row_keys(columns, radices) if columns else (0,))
        varying = iter(key_columns(keys, radices) if keys else ())
        rows = zip(*[gather(table, next(varying)) if len(table) > 1
                     else repeat(table[0], len(keys))  # a constant column
                     for table in tables]) if keys else ()
        return Relation.trusted(name or twig.name, Schema(twig.attributes),
                                frozenset(rows))
