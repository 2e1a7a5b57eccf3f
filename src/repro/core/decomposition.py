"""Twig decomposition — Section 3, Figure 2 of the paper.

An XML twig is rewritten into relational-like tables without loosening the
worst-case size bound:

1. **Cut every A-D edge**, splitting the twig into sub-twigs that contain
   only parent-child edges;
2. for each sub-twig, **enumerate its root-leaf paths**;
3. **treat each root-leaf path as a relation** whose attributes are the
   path's query-node names.

For Figure 2's twig ``A(/B, /D, //C(/E), //F(/H), //G)`` this yields
R3(A,B), R4(A,D), R5(C,E), R6(F,H), R7(G) — the paper's exact output.

The *cardinality* of a path relation over a document is the number of
distinct value tuples along matching P-C node chains; that is what the
multi-model AGM bound consumes, and what XJoin's tries index.

The cut A-D edges are not thrown away: each one is kept as a *pair
input* (:attr:`TwigDecomposition.pairs`), the binary relation of
(upper value, lower value) over the document's ancestor-descendant node
pairs. XJoin joins the pair inputs alongside the path relations, so a
cut edge still connects its two sub-twigs in the join; the paper's size
bound is computed over the path relations alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.relational.relation import Relation
from repro.xml.accel import axis_pairs
from repro.xml.columnar import ColumnarDocument, columnar
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.twig import Axis, TwigNode, TwigQuery

if TYPE_CHECKING:
    from repro.engine.encoded import EncodedInput


@dataclass(frozen=True)
class PathRelation:
    """One root-leaf path of a sub-twig, viewed as a relation."""

    name: str
    nodes: tuple[TwigNode, ...]

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(node.name for node in self.nodes)

    @property
    def arity(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"PathRelation({self.name}({', '.join(self.attributes)}))"


@dataclass(frozen=True)
class TwigDecomposition:
    """The full decomposition of one twig."""

    twig: TwigQuery
    subtwig_roots: tuple[TwigNode, ...]
    paths: tuple[PathRelation, ...]
    #: The cut A-D edges, one pair input each (pre-order).
    pairs: "tuple[EdgeAtom, ...]" = ()

    def path_for_attribute(self, name: str) -> tuple[PathRelation, ...]:
        """All path relations binding the given attribute."""
        return tuple(p for p in self.paths if name in p.attributes)


@dataclass(frozen=True)
class EdgeAtom:
    """One twig edge viewed as a binary relational atom.

    XJoin's pair inputs are the atoms of the cut A-D edges
    (:attr:`TwigDecomposition.pairs`). The accelerator backend goes all
    the way: instead of cutting A-D edges and enumerating P-C paths,
    *every* edge — either axis — becomes one binary atom
    ``E_parent_child(parent, child)`` over the region labels, with the
    axis kept as a range predicate (materialised by
    :func:`repro.xml.accel.edge_relation`). The twig is then exactly a
    tree-shaped conjunctive query: each non-root node appears in one
    atom as the child, so joining the atoms on the shared node
    variables yields precisely the embeddings.
    """

    name: str
    parent: TwigNode
    child: TwigNode

    @property
    def axis(self) -> Axis:
        return self.child.axis

    @property
    def attributes(self) -> tuple[str, str]:
        return (self.parent.name, self.child.name)

    def __repr__(self) -> str:
        return (f"EdgeAtom({self.name}({self.parent.name}, "
                f"{self.axis}{self.child.name}))")


def edge_atoms(twig: TwigQuery) -> tuple[EdgeAtom, ...]:
    """The accelerator's edge-atom decomposition of *twig* (pre-order)."""
    return tuple(EdgeAtom(f"E_{parent.name}_{child.name}", parent, child)
                 for parent, child in twig.edges())


def subtwig_root_nodes(twig: TwigQuery) -> list[TwigNode]:
    """Step 1: the roots of the sub-twigs obtained by cutting A-D edges.

    These are the twig root plus every node attached by a DESCENDANT axis.
    """
    return [node for node in twig.nodes()
            if node.parent is None or node.axis is Axis.DESCENDANT]


def pc_leaves(node: TwigNode) -> bool:
    """Is *node* a leaf of its sub-twig (no P-C children)?"""
    return not any(child.axis is Axis.CHILD for child in node.children)


def root_leaf_paths(subtwig_root: TwigNode) -> list[tuple[TwigNode, ...]]:
    """Step 2: all root-leaf paths of a P-C sub-twig."""
    paths: list[tuple[TwigNode, ...]] = []
    chain: list[TwigNode] = []

    def descend(node: TwigNode) -> None:
        chain.append(node)
        pc_children = [c for c in node.children if c.axis is Axis.CHILD]
        if not pc_children:
            paths.append(tuple(chain))
        else:
            for child in pc_children:
                descend(child)
        chain.pop()

    descend(subtwig_root)
    return paths


def decompose(twig: TwigQuery) -> TwigDecomposition:
    """Steps 1-3: the relational-like view of a twig (Figure 2)."""
    roots = subtwig_root_nodes(twig)
    paths: list[PathRelation] = []
    for root in roots:
        for node_chain in root_leaf_paths(root):
            name = f"{twig.name}[{'/'.join(n.name for n in node_chain)}]"
            paths.append(PathRelation(name=name, nodes=node_chain))
    pairs = tuple(
        EdgeAtom(f"{twig.name}[{upper.name}//{lower.name}]", upper, lower)
        for upper, lower in twig.ad_edges())
    return TwigDecomposition(twig=twig, subtwig_roots=tuple(roots),
                             paths=tuple(paths), pairs=pairs)


def _iter_path_chain_ids(view: ColumnarDocument, path: PathRelation
                         ) -> Iterator[tuple[int, ...]]:
    """Node-id chains matching the path's P-C pattern, via the columnar
    path index.

    A chain of consecutive P-C edges with tags t1/../tk ends at a node
    whose interned root tag path ends with that tag suffix, so the tag
    structure is checked **once per distinct document path**; per node
    only the parent-array ascent and the value predicates remain.
    """
    tags = tuple(node.tag for node in path.nodes)
    k = len(tags)
    leaf_tid = view.tag_index.get(tags[-1])
    if leaf_tid is None:
        return
    values = view.values
    parents = view.parents
    query_nodes = path.nodes
    predicated = any(q.predicate is not None for q in query_nodes)
    for pid in view.pids_by_last_tag.get(leaf_tid, ()):
        document_path = view.paths[pid]
        if len(document_path) < k or document_path[-k:] != tags:
            continue
        for nid in view.nids_by_path[pid]:
            chain = [nid]
            current = nid
            for _ in range(k - 1):
                current = parents[current]
                chain.append(current)
            chain.reverse()
            if predicated and not all(
                    q.matches_value(values[c])
                    for q, c in zip(query_nodes, chain)):
                continue
            yield tuple(chain)


def iter_path_chains(document: XMLDocument, path: PathRelation
                     ) -> Iterator[tuple[XMLNode, ...]]:
    """All node chains in *document* matching the path's P-C pattern.

    A chain instantiates consecutive path nodes as parent/child pairs with
    matching tags and value predicates.
    """
    view = columnar(document)
    nodes_of = view.nodes
    for chain in _iter_path_chain_ids(view, path):
        yield tuple(nodes_of[nid] for nid in chain)


def _value_rows(view: ColumnarDocument, chains, names: tuple[str, ...],
                structural: frozenset[str]) -> Iterator[tuple]:
    """The join-value tuple of each node-id chain: typed values, with
    valueless nodes of *structural* attributes bound by identity
    (:mod:`repro.core.surrogate`) instead of the conflating ``None``."""
    from repro.core.surrogate import NodeSurrogate

    values = view.values
    starts = view.starts
    use_surrogate = [name in structural for name in names]
    for chain in chains:
        row = []
        for nid, flag in zip(chain, use_surrogate):
            value = values[nid]
            if value is None and flag:
                value = NodeSurrogate(starts[nid])
            row.append(value)
        yield tuple(row)


def twig_input(document: XMLDocument, atom: "PathRelation | EdgeAtom",
               structural: frozenset[str] = frozenset(),
               order: "tuple[str, ...] | None" = None
               ) -> "tuple[EncodedInput, bool]":
    """(the cached encoded form of one twig input of *document* — a path
    relation or an A-D pair input — whether this call built it).

    It hangs in the columnar view's ``derived`` dict (so it lives as
    long as the view's arrays are current), keyed by what the rows
    depend on: the atom's kind and name, each query node's tag and
    predicate, its identity-bound attributes, and the column order —
    the atom's attributes as they appear in *order*. Rows are read
    straight from the columnar arrays; a node is represented alike in
    path and pair rows, so their tries intersect on one dictionary.
    """
    # Imported lazily: repro.engine imports this package's siblings.
    from repro.engine.encoded import encoded_input

    view = columnar(document)
    names = atom.attributes
    columns = names if order is None \
        else tuple(a for a in order if a in names)
    bound = structural.intersection(names)
    nodes = atom.nodes if isinstance(atom, PathRelation) \
        else (atom.parent, atom.child)
    key = (type(atom), atom.name,
           tuple((node.tag, node.predicate) for node in nodes), bound)

    def rows() -> set[tuple]:
        if isinstance(atom, PathRelation):
            chains = _iter_path_chain_ids(view, atom)
        else:
            # The accelerator's stack-tree merge over the two candidate
            # postings: O(|upper| + |lower| + output), no self pairs.
            nid_of = view.nid_index
            chains = ((nid_of[upper], nid_of[lower]) for upper, lower
                      in axis_pairs(view.stream(atom.parent),
                                    view.stream(atom.child),
                                    view.levels, Axis.DESCENDANT))
        return set(_value_rows(view, chains, names, bound))

    return encoded_input(view.derived, key, atom.name, names, columns, rows)


def materialize_path_relation(document: XMLDocument,
                              path: PathRelation) -> Relation:
    """The path relation as an explicit (distinct) value relation.

    Used by the baseline, the bound computation and the test oracle; XJoin
    itself joins the path's cached trie (:func:`twig_input`) without
    materialising a relation (the paper: "we do not physically transform
    them into relational tables").
    """
    view = columnar(document)
    return Relation(path.name, path.attributes, _value_rows(
        view, _iter_path_chain_ids(view, path), path.attributes,
        frozenset()))


def path_relation_cardinality(document: XMLDocument, path: PathRelation,
                              structural: frozenset[str] = frozenset()
                              ) -> int:
    """Distinct tuple count of the path relation in *document*: the
    size of the trie XJoin joins (surrogate-aware under *structural*),
    so Lemma 3.5's bound and the algorithm see the same cardinalities."""
    return twig_input(document, path, structural)[0].trie.size
