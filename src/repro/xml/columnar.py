"""Columnar document store: the XML side of the encoded engine.

A :class:`ColumnarDocument` is built **once** per document version,
is held by the document (``document.view``), and holds the whole tree
as parallel typed buffers over dense int node ids — ``starts``,
``ends``, ``levels``, ``parents``, ``tag_ids``, pre-parsed typed
``values``, and per-tag postings sorted by document order.
The int columns are packed through :func:`repro.buffers.layout.pack`
into the narrowest ``array`` typecode their label range needs (signed
for ``parents``, whose root entry is -1), so a document's index is
contiguous memory the batch kernels gallop over and the shared-memory
transport publishes verbatim. Every twig algorithm (TwigStack, TJFast,
PathStack, the structural-join pipeline) and XJoin's path-relation
gathering run on these buffers: the hot loops compare plain ints instead
of chasing :class:`~repro.xml.model.XMLNode` attributes, streams share
the per-tag posting buffers instead of copying node lists per query, and
seeks are galloping probes.

Views are **never pickled** (``__reduce__`` raises): the parallel
transports either fork the address space or publish the buffers once
into an arena (:mod:`repro.parallel.shm`) and let workers attach
zero-copy.

The root-to-node *tag paths* are interned as dense path ids (the columnar
analogue of TJFast's extended Dewey labels): two nodes share a path id
iff their root tag paths are equal, so path-pattern matching runs once
per distinct document path instead of once per node.

:class:`DocumentStats` summarises a document for the planner — tag
counts and distinct-path cardinalities — from the same arrays, as one
more entry of the view's ``derived``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, compress, count, filterfalse, repeat
from operator import add, eq, mul
from typing import TYPE_CHECKING

from repro.buffers.layout import gather, pack
from repro.relational.schema import Value
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.twig import TwigNode

if TYPE_CHECKING:
    from repro.engine.dictionary import Dictionary


#: The kinds of :attr:`ColumnarDocument.derived` entries keyed ``(kind,
#: tag, …)`` that are read off the tag's values.
_VALUE_ENTRIES = frozenset(("tag_values", "tag_dictionary", "tag_codes",
                            "value_index", "node_dictionary", "domain"))


class TagPosting:
    """A forward cursor over one sorted posting (document order).

    Parallel ``nids``/``starts``/``ends`` arrays, shared with the
    document when the query node has no value predicate (no per-query
    copy).
    """

    __slots__ = ("nids", "starts", "ends", "position", "label")

    def __init__(self, nids: Sequence[int], starts: Sequence[int],
                 ends: Sequence[int], label: str = ""):
        self.nids = nids
        self.starts = starts
        self.ends = ends
        self.position = 0
        self.label = label

    def eof(self) -> bool:
        return self.position >= len(self.nids)

    def head_nid(self) -> int:
        """The current node id; undefined at EOF."""
        return self.nids[self.position]

    def head_start(self) -> int:
        return self.starts[self.position]

    def head_end(self) -> int:
        return self.ends[self.position]

    def advance(self) -> None:
        self.position += 1

    def remaining(self) -> int:
        return len(self.nids) - self.position

    def __len__(self) -> int:
        return len(self.nids)

    def __repr__(self) -> str:
        return (f"TagPosting({self.label!r}, {self.position}/"
                f"{len(self.nids)})")


class ColumnarDocument:
    """One document as parallel arrays over dense int node ids.

    Node ids are pre-order (= document-order) indexes ``0..size-1``.
    ``parents[nid]`` is the parent's node id (-1 for the root);
    ``path_ids[nid]`` interns the root-to-node tag path. Per-tag postings
    (``tag_nids``/``tag_starts``/``tag_ends``) are parallel lists sorted
    by ``start`` — pre-order construction yields them sorted for free —
    and ``tag_ranks[nid]`` is the node's position in its tag's posting
    (``tag_nids[tag_ids[nid]][tag_ranks[nid]] == nid``), so a column
    parallel to a posting is read per node id without a lookup table.
    """

    # No back-reference to the XMLDocument: the document holds its view
    # (``document.view``), never the other way round, so a dropped view
    # is freed by reference count.
    __slots__ = ("size", "nodes", "starts", "ends", "levels",
                 "parents", "tag_ids", "values", "path_ids",
                 "tags", "tag_index", "paths", "path_table", "tag_nids",
                 "tag_starts", "tag_ends", "tag_ranks", "nids_by_path",
                 "pids_by_last_tag", "nid_index", "derived",
                 "stored_dictionary")

    def __init__(self, document: XMLDocument):
        root = document.root
        assert root.start is not None, "document must be indexed"
        tags: list[str] = []
        tag_index: dict[str, int] = {}
        paths: list[tuple[str, ...]] = []
        # (parent path id, tag id) -> path id: interning makes path-level
        # work (TJFast, DocumentStats) linear in *distinct* paths.
        path_table: dict[tuple[int, int], int] = {}
        nodes, starts, ends, levels, parents, tag_ids, values, path_ids = \
            node_rows(root, tags, tag_index, paths, path_table)

        self.size = len(nodes)
        self.nodes = nodes
        # ends[0] (the root's end) bounds every region label, so the
        # packers skip their scan; parents packs signed (root is -1).
        label_hi = ends[0] if ends else 0
        self.starts = pack(starts, hi=label_hi)
        self.ends = pack(ends, hi=label_hi)
        self.levels = pack(levels)
        self.parents = pack(parents)
        self.tag_ids = pack(tag_ids, hi=max(len(tags) - 1, 0))
        self.values = values
        self.path_ids = pack(path_ids, hi=max(len(paths) - 1, 0))
        self.tags = tags
        self.tag_index = tag_index
        self.paths = paths
        # Kept for the update layer: interning a spliced subtree's new
        # paths (repro.updates.documents) without re-deriving the table.
        self.path_table = path_table

        tag_nids: list[list[int]] = [[] for _ in tags]
        tag_starts: list[list[int]] = [[] for _ in tags]
        tag_ends: list[list[int]] = [[] for _ in tags]
        tag_ranks: list[int] = []
        nids_by_path: list[list[int]] = [[] for _ in paths]
        for nid, tid in enumerate(tag_ids):
            tag_ranks.append(len(tag_nids[tid]))
            tag_nids[tid].append(nid)
            tag_starts[tid].append(starts[nid])
            tag_ends[tid].append(ends[nid])
            nids_by_path[path_ids[nid]].append(nid)
        nid_hi = max(self.size - 1, 0)
        self.tag_nids = [pack(n, hi=nid_hi) for n in tag_nids]
        self.tag_starts = [pack(s, hi=label_hi) for s in tag_starts]
        self.tag_ends = [pack(e, hi=label_hi) for e in tag_ends]
        self.tag_ranks = pack(tag_ranks, hi=nid_hi)
        self.nids_by_path = [pack(n, hi=nid_hi) for n in nids_by_path]
        self.pids_by_last_tag = paths_by_last_tag(path_table)
        #: start label -> node id (starts identify nodes uniquely).
        self.nid_index: dict[int, int] = {
            start: nid for nid, start in enumerate(starts)}
        #: Derived from the arrays above and memoised per view: per-tag
        #: value gathers (:meth:`tag_values`), what is read off them
        #: (value dictionaries and indexes), encoded twig inputs, the
        #: :class:`DocumentStats`, tag-pair fan-outs (:meth:`fan_out`).
        #: They share the view's lifetime; the update layer resets them
        #: after every splice and drops what reads a tag's values after
        #: a value edit (:meth:`forget_values`).
        self.derived: dict = {}
        #: tid -> the tag's dictionary as a streamed arena stores it
        #: (:func:`repro.xml.arenaview.view_from_arena`); None here.
        self.stored_dictionary = None

    @classmethod
    def from_arena(cls, arena) -> "ColumnarDocument":
        """A read-only view over a published arena (segment or file).

        *arena* is anything exposing ``buffer(name)`` + ``meta`` with
        the document buffer layout — a
        :class:`~repro.buffers.shm.SharedArena` segment or a
        file-backed :class:`~repro.buffers.mmapfile.FileArena`, either
        published from a view (:mod:`repro.parallel.shm`) or written by
        the streaming builder (:mod:`repro.xml.streaming`). Columns
        are zero-copy casts; nodes, the nid index and (for streamed
        arenas) values are lazy adapters, so attachment is O(1) in
        document size. See :mod:`repro.xml.arenaview`.
        """
        from repro.xml.arenaview import view_from_arena

        return view_from_arena(arena)

    # -- lookups -----------------------------------------------------------

    def nid_of(self, node: XMLNode) -> int:
        """The dense id of a node of this document."""
        assert node.start is not None, "node has no region label"
        return self.nid_index[node.start]

    def nid_by_start(self, start: int) -> int | None:
        return self.nid_index.get(start)

    def postings(self, tag: str) -> tuple[Sequence[int], Sequence[int],
                                          Sequence[int]]:
        """(nids, starts, ends) of *tag*, document order; empty if absent."""
        tid = self.tag_index.get(tag)
        if tid is None:
            return (), (), ()
        return self.tag_nids[tid], self.tag_starts[tid], self.tag_ends[tid]

    def stream(self, query_node: TwigNode) -> TagPosting:
        """The posting cursor for one twig query node.

        Without a value predicate the cursor shares the document's
        posting arrays (zero copying); with one, the posting is
        filtered for this query by one mask over its values.
        """
        nids, starts, ends = self.postings(query_node.tag)
        if query_node.predicate is not None and len(nids):
            keep = list(map(query_node.predicate,
                            self.tag_values(query_node.tag)))
            # Known bounds (the root's end bounds every label) spare
            # the packers their scans.
            label_hi = self.ends[0]
            nids = pack(list(compress(nids, keep)), hi=self.size - 1, lo=0)
            starts = pack(list(compress(starts, keep)), hi=label_hi, lo=0)
            ends = pack(list(compress(ends, keep)), hi=label_hi, lo=0)
        return TagPosting(nids, starts, ends, label=query_node.name)

    def values_of(self, nids: Sequence[int]) -> list:
        """``values[nid]`` per entry of *nids*, one bulk gather: an
        attached arena decodes its value columns in C-level passes
        (:meth:`repro.xml.arenaview.ArenaValues.gather`)."""
        values = self.values
        if isinstance(values, list):
            return list(map(values.__getitem__, nids))
        return values.gather(nids)

    def tag_values(self, tag: str) -> list:
        """The typed values of *tag*'s posting, parallel to its node
        ids: **one** :meth:`values_of` gather per tag and view version,
        shared by :meth:`value_index`, predicate masks and, where no
        arena stores it, :meth:`tag_dictionary`."""
        key = ("tag_values", tag)
        values = self.derived.get(key)
        if values is None:
            values = self.derived[key] = self.values_of(self.postings(tag)[0])
        return values

    def tag_dictionary(self, tag: str) -> "tuple[tuple, list[int], int]":
        """*tag*'s one value dictionary per view version, ``(values,
        codes, valueless)``: its distinct real values in ``sort_key``
        order (``1``, ``1.0``, ``True`` are one); per posting entry, i
        for the i-th value's nodes, k, k+1, … for the valueless (k =
        ``len(values)``); their count. A streamed arena stores it, any
        other view derives it once from :meth:`tag_values`."""
        key = ("tag_dictionary", tag)
        found = self.derived.get(key)
        if found is None:
            tid = self.tag_index.get(tag)
            if self.stored_dictionary is None or tid is None:
                coder = TagCoder()
                ids = coder.ids(self.tag_values(tag))[0]
                found = (coder.table()[0], coder.codes(ids), coder.valueless)
            else:
                found = self.stored_dictionary(tid)
            found = self.derived.setdefault(key, found)
        return found

    def tag_codes(self, tag: str) -> "tuple[list[int], Dictionary]":
        """(*tag*'s value-level codes ``min(code, k)`` parallel to its
        posting — the dictionary's code list itself when no node is
        valueless —, their ``Dictionary``: :meth:`tag_dictionary`'s
        values in its order, then ``None`` if a node is valueless),
        shared by every twig input binding *tag* by value and by accel's
        projection. A reader holding a cut of the posting reads a node's
        code at ``codes[tag_ranks[nid]]``."""
        from repro.engine.dictionary import Dictionary

        key = ("tag_codes", tag)
        found = self.derived.get(key)
        if found is None:
            values, codes, valueless = self.tag_dictionary(tag)
            found = self.derived.setdefault(key, (
                list(map(min, codes, repeat(len(values)))) if valueless
                else codes,
                Dictionary.of_sorted(tag, values + (None,) * bool(valueless))))
        return found

    def value_index(self, tag: str) -> "dict[Value | None, list[int]]":
        """``typed value -> node ids`` (ascending, i.e. document order)
        of one tag's posting, built once per view: where XJoin's
        structure validator finds the nodes carrying a join value."""
        key = ("value_index", tag)
        index = self.derived.get(key)
        if index is None:
            index = {}
            for value, nid in zip(self.tag_values(tag),
                                  self.postings(tag)[0]):
                index.setdefault(value, []).append(nid)
            self.derived[key] = index  # whole, or not there: readers race
        return index

    def fan_out(self, parent_tag: str, child_tag: str) -> int:
        """The most *child_tag* children one *parent_tag* element has (0
        if none has any): 1 is a functional dependency, each parent
        element determines its one child. Two gathers, ``parents`` of
        the child posting and ``tag_ids`` of those, once per view
        version; a value edit keeps it."""
        key = ("fan_out", parent_tag, child_tag)
        found = self.derived.get(key)
        if found is None:
            tid = self.tag_index.get(parent_tag)
            nids = self.postings(child_tag)[0]
            if len(nids) and nids[0] == 0:  # the root: no parent
                nids = nids[1:]
            parents = gather(self.parents, nids)
            counts = Counter(compress(parents, map(
                eq, gather(self.tag_ids, parents), repeat(tid))))
            found = self.derived[key] = max(counts.values(), default=0)
        return found

    def forget_values(self, tag: str) -> None:
        """Drop the :attr:`derived` entries that read *tag*'s values: the
        tag's own (:data:`_VALUE_ENTRIES`) and every twig input keyed
        ``(atom class, name, ((tag, predicate), …), …)`` with a node of
        *tag* (:func:`repro.core.decomposition.twig_input`). The stats,
        the edges and every other tag's entries stay."""
        def reads(key) -> bool:
            if not isinstance(key, tuple):
                return False
            if isinstance(key[0], type):
                return any(node_tag == tag for node_tag, _ in key[2])
            return key[0] in _VALUE_ENTRIES and key[1] == tag

        self.derived = {key: entry for key, entry in self.derived.items()
                        if not reads(key)}

    def ancestry(self, nid: int) -> list[int]:
        """Node ids from the root down to (and including) *nid*."""
        parents = self.parents
        chain = [nid]
        while (nid := parents[nid]) >= 0:
            chain.append(nid)
        chain.reverse()
        return chain

    def domain(self, query_node: TwigNode) -> tuple[int, int]:
        """(distinct real values, valueless nodes) among the query
        node's candidates (:meth:`tag_dictionary`'s sizes, or counted
        once per (tag, predicate)). Bound by value the valueless are one
        more value (``None``); by identity (:mod:`repro.core.surrogate`),
        one each."""
        if query_node.predicate is None:
            values, _codes, valueless = self.tag_dictionary(query_node.tag)
            return len(values), valueless
        key = ("domain", query_node.tag, query_node.predicate)
        found = self.derived.get(key)
        if found is None:
            values = list(filter(query_node.predicate,
                                 self.tag_values(query_node.tag)))
            valueless = values.count(None)
            found = self.derived[key] = (
                len(set(values)) - bool(valueless), valueless)
        return found

    def is_existential(self, query_node: TwigNode, by_identity: bool) -> bool:
        """Is the node bound *by_identity* with every candidate
        valueless? Its output column is then ``None`` throughout (the
        erasure rule), so under set semantics one witness is enough."""
        real, valueless = self.domain(query_node)
        return by_identity and valueless > 0 and not real

    def __reduce__(self):
        """Columnar views are structurally unpicklable (zero-copy rule).

        Parallel transports must either fork the address space or
        publish the buffers once via :mod:`repro.parallel.shm` and
        attach in the worker; serializing a whole view per worker is
        exactly the cost the buffer layer exists to eliminate, so it
        fails loudly instead of silently regressing.
        """
        raise TypeError(
            f"{type(self).__name__} is never pickled: publish it through "
            f"repro.parallel.shm (workers attach zero-copy) or use the "
            f"'fork' transport")

    def __repr__(self) -> str:
        return (f"ColumnarDocument({self.size} nodes, {len(self.tags)} "
                f"tags, {len(self.paths)} paths)")


def node_rows(root: XMLNode, tags: list[str], tag_index: dict[str, int],
              paths: "list[tuple[str, ...]]",
              path_table: "dict[tuple[int, int], int]", *,
              first_nid: int = 0, parent_nid: int = -1,
              parent_pid: int = -1) -> tuple[list, ...]:
    """The rows of *root*'s (labelled) subtree in pre-order, numbered
    from *first_nid*: ``(nodes, starts, ends, levels, parents, tag_ids,
    values, path_ids)``, one list each. *root* hangs under *parent_nid*
    at path *parent_pid* (-1 for a document root). Tags and paths are
    interned into the given tables, which grow by the new ones.

    The one node walk: :class:`ColumnarDocument` builds a whole view
    from it, and :class:`~repro.updates.documents.DocumentEditor` the
    block an inserted subtree splices into one."""
    nodes: list[XMLNode] = []
    starts: list[int] = []
    ends: list[int] = []
    levels: list[int] = []
    parents: list[int] = []
    tag_ids: list[int] = []
    values: list[Value | None] = []
    path_ids: list[int] = []
    nid = first_nid - 1
    stack: list[tuple[XMLNode, int, int]] = [(root, parent_nid, parent_pid)]
    while stack:
        node, parent_nid, parent_pid = stack.pop()
        nid += 1
        nodes.append(node)
        starts.append(node.start)  # type: ignore[arg-type]
        ends.append(node.end)  # type: ignore[arg-type]
        levels.append(node.level)  # type: ignore[arg-type]
        parents.append(parent_nid)
        tid = tag_index.get(node.tag)
        if tid is None:
            tid = tag_index[node.tag] = len(tags)
            tags.append(node.tag)
        tag_ids.append(tid)
        values.append(node.value)  # typed text, parsed exactly once
        key = (parent_pid, tid)
        pid = path_table.get(key)
        if pid is None:
            pid = path_table[key] = len(paths)
            prefix = paths[parent_pid] if parent_pid >= 0 else ()
            paths.append(prefix + (node.tag,))
        path_ids.append(pid)
        for child in reversed(node.children):
            stack.append((child, nid, pid))
    return nodes, starts, ends, levels, parents, tag_ids, values, path_ids


def paths_by_last_tag(path_table: "dict[tuple[int, int], int]"
                      ) -> dict[int, list[int]]:
    """Per tag id, the ids of the paths ending in it, ascending: read
    off the interning table :func:`node_rows` fills."""
    found: dict[int, list[int]] = {}
    for (_parent_pid, tid), pid in path_table.items():
        found.setdefault(tid, []).append(pid)
    return found


class TagCoder:
    """Builds a :meth:`ColumnarDocument.tag_dictionary` a chunk at a
    time: :meth:`ids` (first-appearance ids, valueless -1), one
    :meth:`table` sort, then :meth:`codes`. A caller spilling the ids
    holds one tag's distinct values and one chunk."""

    def __init__(self):
        self._ids: dict = {None: -1}
        self._firsts: list = []  # per id, the value as its first holder has it
        self._remap: list[int] = []
        self.valueless = 0

    def ids(self, values: list) -> "tuple[list[int], list[int]]":
        """(the ids of *values*; where in *values* the first holders of
        the values new here sit)."""
        firsts = dict(zip(reversed(values), range(len(values) - 1, -1, -1)))
        fresh = list(filterfalse(self._ids.__contains__, firsts))
        self._ids.update(zip(fresh, count(len(self._firsts))))
        held = list(map(firsts.__getitem__, fresh))
        self._firsts += map(values.__getitem__, held)
        return list(map(self._ids.__getitem__, values)), held

    def table(self) -> "tuple[tuple, list[int]]":
        """(the distinct values in ``sort_key`` order; the id of each)."""
        from repro.engine.dictionary import sort_values

        values = tuple(sort_values(self._firsts))
        code = dict(zip(values, count()))
        # The valueless' id, -1, reads k: None sorts last.
        self._remap = [*map(code.__getitem__, self._firsts), len(values)]
        return values, list(map(self._ids.__getitem__, values))

    def codes(self, ids: "Iterable[int]") -> "list[int]":
        """One chunk of ids as codes, after :meth:`table`: a valueless
        node's is k plus the number of valueless before it."""
        codes = list(map(self._remap.__getitem__, ids))
        missing = list(map(self._remap[-1].__eq__, codes))
        ranks = accumulate(missing, initial=self.valueless)
        codes = list(map(add, codes, map(mul, missing, ranks)))
        self.valueless += sum(missing)
        return codes


def columnar(document: XMLDocument) -> ColumnarDocument:
    """*document*'s columnar view, ``document.view``, built on first use
    (``reindex`` drops it; an arena handle is born with one)."""
    view = document.view
    if view is None:
        view = document.view = ColumnarDocument(document)
    return view


@contextmanager
def columnar_as(document: XMLDocument, view: ColumnarDocument):
    """Resolve ``columnar(document)`` to *view* inside the block (a
    worker's slice of the current view), then back to the current view
    — the same object, ``derived`` and all: nothing was updated."""
    current = columnar(document)
    document.view = view
    try:
        yield view
    finally:
        document.view = current


@dataclass(frozen=True)
class DocumentStats:
    """Summary of one document: its node count, and the node count of
    each tag and of each distinct root tag path (``path_counts``)."""

    size: int
    tag_counts: Mapping[str, int]
    path_counts: Mapping[tuple[str, ...], int]


def stats_from_view(view: ColumnarDocument) -> DocumentStats:
    """:class:`DocumentStats` derived from a (possibly spliced) columnar
    view; a splice forgets the tags and paths it empties, so the summary
    equals one computed from scratch on the current tree."""
    tag_counts = {tag: len(view.tag_nids[tid])
                  for tag, tid in view.tag_index.items()}
    path_counts = {view.paths[pid]: len(nids)
                   for pid, nids in enumerate(view.nids_by_path)}
    return DocumentStats(
        size=view.size,
        tag_counts=tag_counts,
        path_counts=path_counts,
    )


def document_stats(document: XMLDocument) -> DocumentStats:
    """*document*'s :class:`DocumentStats`: one more entry of its view's
    ``derived``, summarised on first read."""
    view = columnar(document)
    stats = view.derived.get("stats")
    if stats is None:
        stats = view.derived.setdefault("stats", stats_from_view(view))
    return stats
