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

Neither kind of input is ever a table of rows: :func:`twig_input` reads
one code column per attribute off the columnar arrays (chain ids from
the path index and ``parents``; per node, its value code in its tag's
one dictionary or its identity code, :mod:`repro.core.surrogate`, read
at its ``tag_ranks`` entry) and builds the trie from those columns.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING

from repro.buffers.layout import gather, row_keys
from repro.relational.relation import Relation
from repro.xml.accel import axis_pairs
from repro.xml.columnar import ColumnarDocument, columnar
from repro.xml.model import XMLDocument
from repro.xml.twig import Axis, TwigNode, TwigQuery

if TYPE_CHECKING:
    from repro.engine.encoded import EncodedInput


@dataclass(frozen=True)
class PathRelation:
    """One root-leaf path of a sub-twig, viewed as a relation."""

    name: str
    nodes: tuple[TwigNode, ...]

    @cached_property
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

    @cached_property
    def attributes(self) -> tuple[str, ...]:
        """The twig's attributes, pre-order, as it was decomposed."""
        return self.twig.attributes

    @cached_property
    def shared(self) -> tuple[str, ...]:
        """The attributes two or more of its inputs of arity > 1 bind."""
        uses = Counter(name for atom in (*self.paths, *self.pairs)
                       if len(atom.attributes) > 1
                       for name in atom.attributes)
        return tuple(name for name, count in uses.items() if count > 1)


@dataclass(frozen=True)
class EdgeAtom:
    """One twig edge viewed as a binary relational atom.

    XJoin's pair inputs are the atoms of the cut A-D edges
    (:attr:`TwigDecomposition.pairs`). Seen whole, *every* edge —
    either axis — is one binary atom ``E_parent_child(parent, child)``
    over the region labels, with the axis a range predicate, and the
    twig exactly a tree-shaped conjunctive query: each non-root node
    appears in one atom as the child, so joining the atoms on the
    shared node variables yields precisely the embeddings. The
    columnar kernel (:mod:`repro.xml.accel`) evaluates that query
    without materialising an atom.
    """

    name: str
    parent: TwigNode
    child: TwigNode

    @property
    def nodes(self) -> tuple[TwigNode, TwigNode]:
        return (self.parent, self.child)

    @property
    def axis(self) -> Axis:
        return self.child.axis

    @cached_property
    def attributes(self) -> tuple[str, str]:
        return (self.parent.name, self.child.name)

    def __repr__(self) -> str:
        return (f"EdgeAtom({self.name}({self.parent.name}, "
                f"{self.axis}{self.child.name}))")


def subtwig_root_nodes(twig: TwigQuery) -> list[TwigNode]:
    """Step 1: the roots of the sub-twigs obtained by cutting A-D edges.

    These are the twig root plus every node attached by a DESCENDANT axis.
    """
    return [node for node in twig.nodes()
            if node.parent is None or node.axis is Axis.DESCENDANT]


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


def _path_chains(view: ColumnarDocument, path: PathRelation
                 ) -> "list[Sequence[int]]":
    """The node-id chains matching the path's P-C pattern, as one id
    column per path node (row-parallel), straight off the path index.

    A chain of consecutive P-C edges with tags t1/../tk ends at a node
    whose interned root tag path ends with that tag suffix, so the tag
    structure is checked **once per distinct document path**; the upper
    columns are the ``parents`` column applied to the one below, and a
    value predicate is one mask over its node's column (the tag's value
    gather read at each node's ``tag_ranks`` entry).
    """
    tags = tuple(node.tag for node in path.nodes)
    k = len(tags)
    leaves: list[int] = []
    for pid in view.pids_by_last_tag.get(view.tag_index.get(tags[-1]), ()):
        document_path = view.paths[pid]
        if len(document_path) >= k and document_path[-k:] == tags:
            leaves.extend(view.nids_by_path[pid])
    posting = view.postings(tags[-1])[0]  # if all are leaves: in order
    columns = [posting if len(leaves) == len(posting) else leaves]
    for _ in range(k - 1):
        columns.insert(0, gather(view.parents, columns[0]))
    for position, node in enumerate(path.nodes):
        if node.predicate is not None:
            keep = list(map(node.predicate, gather(
                view.tag_values(node.tag),
                gather(view.tag_ranks, columns[position]))))
            columns = [list(compress(column, keep)) for column in columns]
    return columns


def _columns(view: ColumnarDocument, atom: "PathRelation | EdgeAtom",
             bound: frozenset[str]) -> "list[Sequence[int]]":
    """One code column per attribute of *atom*, row-parallel (rows may
    repeat): the node's value code (``view.tag_codes``), or its
    identity code (``view.tag_dictionary``'s, the code space of
    :class:`repro.core.surrogate.NodeDictionary`) for the attributes in
    *bound*, read at the node's ``tag_ranks`` entry (a whole posting
    reads the code list as it is). A node is coded alike in every input
    of its twig, on one code space."""
    if isinstance(atom, PathRelation):
        chains = _path_chains(view, atom)
    else:
        # The accelerator's stack-tree merge over the two candidate
        # postings: O(|upper| + |lower| + output), no self pairs.
        pairs = axis_pairs(view.stream(atom.parent), view.stream(atom.child),
                           view.levels, Axis.DESCENDANT)
        nid_of = view.nid_index.__getitem__
        chains = [list(map(nid_of, starts)) for starts in zip(*pairs)] \
            if pairs else [[], []]
    codes = [view.tag_dictionary(node.tag)[1] if node.name in bound
             else view.tag_codes(node.tag)[0] for node in atom.nodes]
    return [column if nids is view.postings(node.tag)[0]
            else gather(column, gather(view.tag_ranks, nids))
            for node, nids, column in zip(atom.nodes, chains, codes)]


def _input_key(atom: "PathRelation | EdgeAtom",
               bound: frozenset[str]) -> tuple:
    """What a twig input's rows depend on: the atom's kind and name,
    each query node's tag and predicate, its identity-bound attributes
    (``ColumnarDocument.forget_values`` reads the tags off it)."""
    return (type(atom), atom.name,
            tuple((node.tag, node.predicate) for node in atom.nodes), bound)


def twig_input(document: XMLDocument, atom: "PathRelation | EdgeAtom",
               structural: frozenset[str] = frozenset(),
               order: "tuple[str, ...] | None" = None
               ) -> "tuple[EncodedInput, bool]":
    """(the cached encoded form of one twig input of *document* — a path
    relation or an A-D pair input — whether this call built it).

    It hangs in the columnar view's ``derived`` dict (so it lives as
    long as the view's arrays are current), keyed by :func:`_input_key`
    and the column order — the atom's attributes as they appear in
    *order*. Its columns (:func:`_columns`) already hold the codes of
    its tags' shared dictionaries: value codes (``view.tag_codes``) or
    node codes, in document order, where a leaf identity column already
    ascends and the trie build skips its pass.
    """
    # Imported lazily: repro.engine imports this package's siblings.
    from repro.core.surrogate import node_dictionary
    from repro.engine.encoded import EncodedInput, encoded_input

    view = columnar(document)
    names = atom.attributes
    columns = names if order is None \
        else tuple(a for a in order if a in names)
    bound = structural.intersection(names)
    key = _input_key(atom, bound)

    def build(local: dict) -> "EncodedInput":
        gathered = dict(zip(names, _columns(view, atom, bound)))
        for node in atom.nodes:
            local[node.name] = node_dictionary(view, node.tag) \
                if node.name in bound else view.tag_codes(node.tag)[1]
        built = EncodedInput(atom.name, columns, [local[a] for a in columns],
                             [gathered[a] for a in columns],
                             len(gathered[names[0]]))
        view.derived[(*key, "size")] = built.trie.size
        return built

    return encoded_input(view.derived, key, columns, build)


def materialize_path_relation(document: XMLDocument,
                              path: PathRelation) -> Relation:
    """The path relation as an explicit (distinct) value relation.

    It decodes the code columns :func:`twig_input` builds, so tests check
    those columns against the naive matcher through it. XJoin itself
    joins the path's cached trie (:func:`twig_input`) without
    materialising a relation (the paper: "we do not physically transform
    them into relational tables").
    """
    view = columnar(document)
    columns = _columns(view, path, frozenset())
    return Relation(path.name, path.attributes, zip(*[
        map(view.tag_codes(node.tag)[1].values.__getitem__, column)
        for node, column in zip(path.nodes, columns)]))


def path_relation_cardinality(document: XMLDocument,
                              atom: "PathRelation | EdgeAtom",
                              structural: frozenset[str] = frozenset()
                              ) -> int:
    """Distinct tuple count of the path relation (or A-D pair input)
    *atom* in *document*: the size of the trie XJoin joins
    (identity-aware under *structural*), so Lemma 3.5's bound and the
    algorithm see the same cardinalities. :func:`twig_input` notes it
    under any column order; else its distinct row keys are counted
    (:func:`repro.buffers.layout.row_keys`) with no trie built."""
    view = columnar(document)
    bound = structural.intersection(atom.attributes)
    key = (*_input_key(atom, bound), "size")
    size = view.derived.get(key)
    if size is None:
        size = view.derived[key] = len(set(row_keys(
            _columns(view, atom, bound))))
    return size
