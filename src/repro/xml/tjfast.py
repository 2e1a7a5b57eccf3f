"""TJFast-style twig matching on root tag paths (Lu et al. 2005).

TJFast reads only the streams of the twig's *leaf* query nodes. The
paper labels every element with an *extended Dewey* label: the label of
the i-th child with tag t under a parent whose child-tag alphabet (from
the DTD) has size m is the parent's label plus one component k with
``k mod m == index of t``. A leaf's label therefore encodes its entire
root tag path, so the root-to-leaf query path is matched against the
label alone, and the matched ancestor elements are recovered from the
label's prefixes. Finally the per-leaf path solutions are merged exactly
like TwigStack's phase 2 (through the encoded engine).

Here the label machinery is the document's interned *path ids*
(:class:`~repro.xml.columnar.ColumnarDocument`): two leaves share a
path id iff their root tag paths are equal, so the query path is
matched **once per distinct document path** instead of once per leaf
element, and ancestors are recovered by walking the columnar
``parents`` array. This keeps the defining property of TJFast —
internal query nodes consume no input streams — while replacing the
per-element label decode with a per-path one. The per-element
formulation (labeler and node-object matcher) is kept under ``tests/``
as a second oracle.
"""

from __future__ import annotations

from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.xml.columnar import columnar
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.twig import Axis, TwigNode, TwigQuery
from repro.xml.twigstack import merge_path_solutions, solution_relation


def match_path_against_tags(path: list[TwigNode],
                            tags: "list[str] | tuple[str, ...]"
                            ) -> list[tuple[int, ...]]:
    """All assignments of query-path nodes to positions in a tag path.

    ``tags`` is the root-to-leaf tag path of a document node (decoded
    from its extended Dewey label, or interned as a columnar path id).
    The query leaf must map to the last position; the query root may map
    anywhere (twig matching is existential over the document). P-C edges
    force consecutive positions, A-D edges any forward gap. Returns
    position tuples aligned with *path*.
    """
    solutions: list[tuple[int, ...]] = []
    positions: list[int] = []
    last = len(tags) - 1

    def extend(query_index: int, from_position: int) -> None:
        query_node = path[query_index]
        is_last = query_index == len(path) - 1
        if query_index == 0:
            candidates = range(from_position, last + 1)
        elif query_node.axis is Axis.CHILD:
            candidates = range(from_position, from_position + 1)
        else:
            candidates = range(from_position, last + 1)
        for position in candidates:
            if position > last or tags[position] != query_node.tag:
                continue
            if is_last and position != last:
                continue
            positions.append(position)
            if is_last:
                solutions.append(tuple(positions))
            else:
                extend(query_index + 1, position + 1)
            positions.pop()

    extend(0, 0)
    return solutions


def tjfast_path_solutions(document: XMLDocument, twig: TwigQuery, *,
                          stats: JoinStats | None = None
                          ) -> dict[str, list[tuple[XMLNode, ...]]]:
    """Per-leaf path solutions computed from leaf streams only."""
    stats = ensure_stats(stats)
    view = columnar(document)
    values = view.values
    nodes_of = view.nodes
    solutions: dict[str, list[tuple[XMLNode, ...]]] = {}
    for leaf in twig.leaves():
        path = twig.root_to_node_path(leaf.name)
        internal = path[:-1]
        found: list[tuple[XMLNode, ...]] = []
        leaf_tid = view.tag_index.get(leaf.tag)
        for pid in view.pids_by_last_tag.get(leaf_tid, ()):  # type: ignore[arg-type]
            # One query-path match per *distinct* document tag path; all
            # nodes sharing the path id reuse the assignments.
            assignments = match_path_against_tags(path, view.paths[pid])
            if not assignments:
                continue
            for nid in view.nids_by_path[pid]:
                stats.count_seeks()
                if not leaf.matches_value(values[nid]):
                    continue
                ancestry = view.ancestry(nid)
                for assignment in assignments:
                    chain = [ancestry[position] for position in assignment]
                    if all(q.matches_value(values[i])
                           for q, i in zip(internal, chain)):
                        found.append(tuple(nodes_of[i] for i in chain))
                        stats.count_emitted()
        solutions[leaf.name] = found
        stats.record_stage(f"tjfast path solutions {leaf.name}", len(found))
    return solutions


def tjfast_embeddings(document: XMLDocument, twig: TwigQuery, *,
                      stats: JoinStats | None = None
                      ) -> list[dict[str, XMLNode]]:
    """All embeddings of *twig* via TJFast."""
    solutions = tjfast_path_solutions(document, twig, stats=stats)
    return merge_path_solutions(twig, solutions, stats=stats)


def tjfast(document: XMLDocument, twig: TwigQuery, *,
           name: str | None = None,
           stats: JoinStats | None = None) -> Relation:
    """The twig's value-tuple answer computed by TJFast."""
    solutions = tjfast_path_solutions(document, twig, stats=stats)
    return solution_relation(document, twig, solutions, name=name,
                             stats=stats)
