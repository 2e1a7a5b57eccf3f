"""The columnar twig backend (``accel``): axes as column lookups.

A twig over node ids is a tree-shaped conjunctive query, and each of
its atoms is already an index of the
:class:`~repro.xml.columnar.ColumnarDocument`:

* a query node's candidates are its tag's posting, value predicate
  applied (:meth:`ColumnarDocument.stream`);
* a parent-child edge *is* the ``parents`` column: the lower posting
  grouped by ``parents[nid]``;
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
:data:`_CHUNK` root candidates at a time: because the frontier is
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

**The shippable form.** Under ``workers > 1`` an ``accel`` twig still
rides the *join* partitioner: :func:`lower_twig` materialises each
edge's axis predicate as a binary relation ``E_parent_child(pre,
pre)`` over the region start labels (:func:`axis_pairs`, the
stack-tree structural join), :func:`compile_twig` encodes them and
:func:`project_starts` decodes the joined rows — an instance with no
query object or document, which every join transport can ship (see
:meth:`repro.parallel.executor.ParallelExecutor.run_twig`).
:func:`axis_pairs` is also what builds XJoin's A-D pair inputs
(:mod:`repro.core.decomposition`).

``docs/accelerator.md`` documents the kernel, its counters and the
measured matcher matrix behind the planner's pick.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Iterator, Sequence
from itertools import chain, compress, count, repeat
from time import perf_counter
from typing import TYPE_CHECKING

from repro.instrumentation import NULL_STATS, JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.xml.columnar import ColumnarDocument, TagPosting, columnar
from repro.xml.twig import Axis, TwigNode, TwigQuery

if TYPE_CHECKING:
    from repro.engine.encoded import EncodedInstance
    from repro.xml.model import XMLDocument, XMLNode

#: Root candidates expanded together: peak memory is one chunk's
#: embeddings, whatever the answer's size.
_CHUNK = 4096


def _edge_matches(view: ColumnarDocument, upper: TagPosting,
                  lower: TagPosting, axis: Axis) -> list:
    """Per candidate of *upper*, its matches along one twig edge as
    positions in *lower*: a list (P-C, the lower posting grouped by
    ``parents``) or a range (A-D, the posting slice whose starts lie
    strictly inside the region — strictly, so a node never pairs with
    itself when both query nodes share a tag); falsy when there is none.
    """
    if axis is Axis.CHILD:
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


def twig_frontiers(view: ColumnarDocument, twig: TwigQuery,
                   stats: JoinStats | None = None
                   ) -> "Iterator[list[Sequence[int]]]":
    """All embeddings of *twig*, level at a time: yields, per chunk of
    root candidates, one node-id column per query node (pre-order).

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
    matches: dict[str, list] = {}
    times = dict.fromkeys(names, 0.0)
    start = 0.0

    stats.start_timer()
    # The reducer, post-order (children sit after parents in pre-order).
    for q in reversed(nodes):
        if counting:
            start = perf_counter()
        posting = live[q.name]
        found = [_edge_matches(view, posting, live[c.name], c.axis)
                 for c in q.children]
        seeks += sum(len(posting) * (1 if c.axis is Axis.CHILD else 2)
                     for c in q.children)
        if not all(map(all, found)):  # some candidate lacks a match
            keep = found[0] if len(found) == 1 \
                else list(map(all, zip(*found)))
            live[q.name] = TagPosting(list(compress(posting.nids, keep)),
                                      list(compress(posting.starts, keep)),
                                      list(compress(posting.ends, keep)))
            found = [list(compress(edge, keep)) for edge in found]
        matches.update(zip((c.name for c in q.children), found))
        if counting:
            stats.record_stage(f"alive {q.name}", len(live[q.name]))
            stats.record_phase(f"alive {q.name}", perf_counter() - start)

    # The expansion, pre-order, a chunk of live roots at a time.
    parent_index = [names.index(q.parent.name) for q in nodes[1:]]
    alive = dict.fromkeys(names, 0)
    roots = len(live[names[0]])
    for lo in range(0, roots, _CHUNK):
        columns: list = [range(lo, min(lo + _CHUNK, roots))]
        alive[names[0]] += len(columns[0])
        for name, upper in zip(names[1:], parent_index):
            if counting:
                start = perf_counter()
            found = list(map(matches[name].__getitem__, columns[upper]))
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
        yield [list(map(live[name].nids.__getitem__, column))
               for name, column in zip(names, columns)]
    stats.stop_timer()

    stats.count_seeks(seeks)
    stats.count_emitted(alive[names[-1]])
    for name in names:
        stats.record_stage(f"expand {name}", alive[name])
        stats.record_phase(f"expand {name}", times[name])


# ---------------------------------------------------------------------------
# the shippable form: edge relations, for workers and XJoin's pair inputs
# ---------------------------------------------------------------------------

#: The relational kernel the *shippable* form's compiled instance runs
#: on. Any registered :class:`~repro.engine.interface.JoinAlgorithm` that
#: evaluates purely relational instances works (``leapfrog`` included);
#: hashed generic join is the library's default for relational inputs.
ACCEL_KERNEL = "generic_join"

#: Attribute names of one per-tag node relation (see :func:`node_relation`).
NODE_SCHEMA = ("pre", "post", "level", "value")


def node_relation(view: ColumnarDocument, tag: str, *,
                  name: str | None = None) -> Relation:
    """The accelerator's node relation ``N_tag(pre, post, level, value)``.

    Rows are read straight from the tag's posting and the shared
    ``levels``/``values`` columns — no node objects are touched. The
    edge relations of :func:`lower_twig` are selections/joins over
    these; this explicit form exists for the property tests, the docs
    and any external (e.g. SQL) backend that wants the raw schema.
    """
    nids, starts, ends = view.postings(tag)
    levels, values = view.levels, view.values
    rows = [(starts[i], ends[i], levels[nid], values[nid])
            for i, nid in enumerate(nids)]
    return Relation(name or f"N_{tag}", NODE_SCHEMA, rows)


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


def edge_relation(view: ColumnarDocument, parent: TwigNode,
                  child: TwigNode, *,
                  stats: JoinStats | None = None) -> Relation:
    """One twig edge as a binary relation of ``(pre, pre)`` pairs.

    The materialised form of the axis range predicate between the two
    node relations, restricted to the candidate streams (tag + value
    predicate already applied by :meth:`ColumnarDocument.stream`).
    """
    pairs = axis_pairs(view.stream(parent), view.stream(child),
                       view.levels, child.axis, stats)
    return Relation(f"E_{parent.name}_{child.name}",
                    (parent.name, child.name), pairs)


def lower_twig(view: ColumnarDocument, twig: TwigQuery, *,
               stats: JoinStats | None = None) -> list[Relation]:
    """Lower *twig* to its conjunctive-query atoms (one per edge).

    A single-node twig has no edges and lowers to one unary relation of
    the root's candidate pre labels. Each edge relation's size is
    recorded as a stage — the accelerator's per-edge pair lists are its
    intermediate results, the quantity the paper's evaluation tracks.
    """
    from repro.core.decomposition import edge_atoms

    stats = ensure_stats(stats)
    atoms = edge_atoms(twig)
    if not atoms:
        root = twig.root
        posting = view.stream(root)
        relation = Relation(f"E_{root.name}", (root.name,),
                            [(start,) for start in posting.starts])
        stats.record_stage(f"nodes {root.name}", len(relation))
        return [relation]
    relations = []
    for atom in atoms:
        pairs = axis_pairs(view.stream(atom.parent), view.stream(atom.child),
                           view.levels, atom.axis, stats)
        relation = Relation(atom.name, atom.attributes, pairs)
        stats.record_stage(
            f"edge {atom.parent.name}{atom.axis}{atom.child.name}",
            len(relation))
        relations.append(relation)
    return relations


def compile_twig(view: ColumnarDocument, twig: TwigQuery, *,
                 name: str | None = None,
                 stats: JoinStats | None = None) -> "EncodedInstance":
    """Compile *twig* into an encoded relational instance.

    The instance's attribute order is the twig's pre-order attribute
    tuple, so its first (top-level) attribute is the twig root — which
    is what lets the parallel executor partition an accel run on the
    root tag's pre-range through the ordinary join slicer. The returned
    instance carries no query object or documents, so every join
    transport (fork, pickle, shm, mmap) can ship it.
    """
    from repro.engine.encoded import EncodedInstance

    stats = ensure_stats(stats)
    with stats.phase("lower"):
        relations = lower_twig(view, twig, stats=stats)
    with stats.phase("encode"):
        return EncodedInstance.from_relations(relations, twig.attributes,
                                              name=name or twig.name)


def project_starts(view: ColumnarDocument, twig: TwigQuery,
                   start_rows, *, name: str | None = None) -> Relation:
    """Decode pre-label rows into the twig's value-tuple answer."""
    values, index = view.values, view.nid_index
    rows = {tuple(values[index[start]] for start in row)
            for row in start_rows}
    return Relation(name or twig.name, Schema(twig.attributes), rows)


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
        rows: set[tuple] = set()
        for columns in twig_frontiers(view, twig, stats):
            rows.update(zip(*map(view.values_of, columns)))
        return Relation.trusted(name or twig.name, Schema(twig.attributes),
                                frozenset(rows))
