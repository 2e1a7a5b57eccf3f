"""Read-only document views over published arenas (segment or file).

:func:`view_from_arena` rebuilds a
:class:`~repro.xml.columnar.ColumnarDocument` whose columns are
zero-copy typed ``memoryview`` windows over an arena — either a
:class:`~repro.buffers.shm.SharedArena` segment or a file-backed
:class:`~repro.buffers.mmapfile.FileArena` (one layout, one reader;
this module only needs ``arena.buffer(name)`` + ``arena.meta``). Every
registered twig matcher, the planner's twig statistics and XJoin's
path gathering run unchanged over the rebuilt view.

Lazy adapters keep attachment O(1) in document size:

* :class:`ArenaNodes` — **memoised** node stubs (one object per node
  id, created on first access), so identity checks like the structure
  validator's ``node.parent is not upper`` hold, and navigation
  (``children`` / ``descendants``) derives from the region labels with
  bisect sibling jumps instead of shipped node objects;
* :class:`LazyNidIndex` — the ``start label -> nid`` mapping as a
  binary search over the (pre-order, strictly increasing) ``starts``
  column instead of an O(n) dict built per attachment;
* :class:`ArenaValues` — typed node values decoded on demand (one at
  a time, or a whole column of node ids in bulk) from the
  streamed value columns (``val_kind`` / ``val_ref`` / per-kind data +
  a UTF-8 string heap) written by :mod:`repro.xml.streaming`; arenas
  that ship values in the pickled meta (an in-memory view published
  through :func:`repro.parallel.shm.document_buffers`) keep using the
  plain list;
* :func:`stored_dictionaries` — each tag's value dictionary as the
  streaming builder wrote it, its value table decoded on first use.

:class:`ArenaDocument` is the document stand-in handed to matchers,
whichever backing holds the arena: it holds the view (``.view``, what
:func:`repro.xml.columnar.columnar` reads) and answers
``nodes(tag)`` / ``size()`` / ``root``, so even the navigational
``naive`` oracle can walk an attached corpus.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import compress, repeat
from operator import add
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import TransportError

if TYPE_CHECKING:
    from repro.xml.columnar import ColumnarDocument

#: Value-column kind codes written by the streaming builder.
VALUE_NONE = 0
VALUE_INT = 1
VALUE_FLOAT = 2
VALUE_STR = 3
#: Ints outside the signed 64-bit range ride the string heap.
VALUE_BIGINT = 4

#: The streamed value-column buffer names (all present or none).
VALUE_COLUMNS = ("val_kind", "val_ref", "val_int", "val_float",
                 "val_str_off", "val_str_len", "val_str_heap")


class ArenaNode:
    """One memoised node stub over an attached view.

    Presents the ``XMLNode`` navigation surface — ``start``, ``end``,
    ``level``, ``tag``, ``value``, ``parent``, ``children``,
    ``descendants()`` — by reading the view's columns on demand.
    Children are derived from the region labels: the first child is
    ``nid + 1`` (pre-order), each next sibling is the bisect of the
    previous child's ``end`` label into ``starts``.
    """

    __slots__ = ("_nodes", "_nid")

    def __init__(self, nodes: "ArenaNodes", nid: int):
        self._nodes = nodes
        self._nid = nid

    @property
    def nid(self) -> int:
        """The node's dense pre-order id."""
        return self._nid

    @property
    def start(self) -> int:
        """The node's region start label."""
        return self._nodes.view.starts[self._nid]

    @property
    def end(self) -> int:
        """The node's region end label."""
        return self._nodes.view.ends[self._nid]

    @property
    def level(self) -> int:
        """The node's depth in the document tree."""
        return self._nodes.view.levels[self._nid]

    @property
    def tag(self) -> str:
        """The node's tag name, resolved through the shared tag table."""
        view = self._nodes.view
        return view.tags[view.tag_ids[self._nid]]

    @property
    def value(self):
        """The node's pre-parsed typed text value."""
        return self._nodes.view.values[self._nid]

    @property
    def parent(self) -> "ArenaNode | None":
        """The parent stub (memoised; None for the root)."""
        parent_nid = self._nodes.view.parents[self._nid]
        return self._nodes[parent_nid] if parent_nid >= 0 else None

    @property
    def children(self) -> "list[ArenaNode]":
        """The direct children, document order (bisect sibling jumps)."""
        view = self._nodes.view
        out: list[ArenaNode] = []
        child = self._nid + 1
        while child < view.size and view.parents[child] == self._nid:
            out.append(self._nodes[child])
            # The next sibling is the first node whose start exceeds
            # this child's end label (starts are strictly increasing).
            child = bisect_left(view.starts, view.ends[child])
        return out

    def descendants(self) -> "Iterator[ArenaNode]":
        """Pre-order strict descendants: the contiguous nid range."""
        view = self._nodes.view
        stop = bisect_left(view.starts, view.ends[self._nid])
        for nid in range(self._nid + 1, stop):
            yield self._nodes[nid]

    def __repr__(self) -> str:
        return f"ArenaNode(<{self.tag}> nid={self._nid})"


class ArenaNodes:
    """The attached view's ``nodes`` column: memoised stubs on access.

    One :class:`ArenaNode` is created per accessed node id and cached,
    so repeated lookups return the *same* object — required by the
    identity comparisons in the structure validator and cheap for the
    result-projection path (only solution nodes are ever touched).
    """

    __slots__ = ("view", "_memo")

    def __init__(self, view: "ColumnarDocument"):
        self.view = view
        self._memo: dict[int, ArenaNode] = {}

    def __getitem__(self, nid: int) -> ArenaNode:
        node = self._memo.get(nid)
        if node is None:
            node = self._memo[nid] = ArenaNode(self, nid)
        return node

    def __len__(self) -> int:
        return self.view.size


class LazyNidIndex:
    """``start label -> nid`` via binary search over ``starts``.

    Pre-order construction makes ``starts`` strictly increasing, so the
    dict the in-memory build materialises is redundant for a frozen
    view: a bisect probe answers the same lookups with zero attach-time
    cost and zero heap.
    """

    __slots__ = ("_starts",)

    def __init__(self, starts: Sequence[int]):
        self._starts = starts

    def _find(self, start: int) -> int | None:
        index = bisect_left(self._starts, start)
        if index < len(self._starts) and self._starts[index] == start:
            return index
        return None

    def __getitem__(self, start: int) -> int:
        nid = self._find(start)
        if nid is None:
            raise KeyError(start)
        return nid

    def get(self, start: int, default=None):
        """The nid whose start label is *start*, or *default*."""
        nid = self._find(start)
        return default if nid is None else nid

    def __contains__(self, start: int) -> bool:
        return self._find(start) is not None

    def __len__(self) -> int:
        return len(self._starts)


class ArenaValues(Sequence):
    """Typed node values decoded lazily from the streamed value columns.

    ``val_kind[nid]`` selects the type, ``val_ref[nid]`` indexes the
    per-kind data (``val_int`` / ``val_float`` / the string heap via
    ``val_str_off`` + ``val_str_len``). Ints that overflow signed
    64-bit are stored on the heap with kind :data:`VALUE_BIGINT` so the
    decoded value still compares equal to the in-memory build's.
    """

    __slots__ = ("_kind", "_ref", "_int", "_float", "_str_off",
                 "_str_len", "_heap")

    def __init__(self, buffer):
        """*buffer* maps a value column's name to its typed view: an
        arena's ``buffer``, or the streaming builder's snapshots."""
        (self._kind, self._ref, self._int, self._float, self._str_off,
         self._str_len, self._heap) = map(buffer, VALUE_COLUMNS)

    def __len__(self) -> int:
        return len(self._kind)

    def _decode_str(self, ref: int) -> str:
        off = self._str_off[ref]
        return bytes(self._heap[off:off + self._str_len[ref]]
                     ).decode("utf-8")

    def __getitem__(self, nid):
        if isinstance(nid, slice):
            return [self[i] for i in range(*nid.indices(len(self)))]
        kind = self._kind[nid]
        if kind == VALUE_NONE:
            return None
        ref = self._ref[nid]
        if kind == VALUE_INT:
            return self._int[ref]
        if kind == VALUE_FLOAT:
            return self._float[ref]
        if kind == VALUE_STR:
            return self._decode_str(ref)
        return int(self._decode_str(ref))  # VALUE_BIGINT

    def gather(self, nids: Sequence[int]) -> list:
        """``[self[nid] for nid in nids]``: the nodes' (kind, ref)
        pairs read in C, then :meth:`decode`."""
        return self.decode(list(map(self._kind.__getitem__, nids)),
                           list(map(self._ref.__getitem__, nids)))

    def decode(self, kinds: Sequence[int], refs: Sequence[int]) -> list:
        """The values behind parallel *kinds* and *refs*, in C-level
        passes over the value columns: a run of one kind (the usual
        case — a tag's text is all ints, all strings or all absent) is
        decoded in order, a mixed one kind by kind, each distinct
        reference once, into a table the entries then index."""
        present = set(kinds)
        if present <= {VALUE_NONE}:
            return [None] * len(kinds)
        if len(present) == 1:
            return self._decode(kinds[0], refs)
        table: dict = {}
        for kind in present:
            chosen = list(set(compress(refs, map(kind.__eq__, kinds))))
            table.update(zip(zip(repeat(kind), chosen),
                             self._decode(kind, chosen)))
        return list(map(table.__getitem__, zip(kinds, refs)))

    def _decode(self, kind: int, refs: "list[int]") -> list:
        """The values behind *refs*, all of one *kind*."""
        if kind == VALUE_NONE:
            return [None] * len(refs)
        if kind == VALUE_INT:
            return list(map(self._int.__getitem__, refs))
        if kind == VALUE_FLOAT:
            return list(map(self._float.__getitem__, refs))
        offs = list(map(self._str_off.__getitem__, refs))
        ends = map(add, offs, map(self._str_len.__getitem__, refs))
        texts = map(str, map(self._heap.__getitem__, map(slice, offs, ends)),
                    repeat("utf-8"))
        return list(texts if kind == VALUE_STR else map(int, texts))


class ArenaDocument:
    """The document stand-in for an attached arena view.

    Holds its view, as an ``XMLDocument`` does, and a ``version``
    (always 0: the view is frozen); it also answers the navigational
    document surface —
    ``nodes(tag)``, ``size()``, ``root`` — so every registered matcher,
    including the ``naive`` oracle, runs against an attached corpus.
    ``arena`` (set by :func:`attach_arena_document`) is the backing
    arena when there is one: the parallel executor re-publishes it to
    its workers **by address**, with zero copying.
    """

    __slots__ = ("version", "view", "arena")

    def __init__(self, view: "ColumnarDocument", arena: Any = None):
        self.version = 0
        self.view = view
        self.arena = arena

    def nodes(self, tag: str) -> "list[ArenaNode]":
        """All nodes with *tag*, document order (memoised stubs)."""
        nids, _starts, _ends = self.view.postings(tag)
        nodes = self.view.nodes
        return [nodes[nid] for nid in nids]

    def size(self) -> int:
        """The number of nodes in the document."""
        return self.view.size

    @property
    def root(self) -> ArenaNode:
        """The root node stub (nid 0)."""
        return self.view.nodes[0]

    def __repr__(self) -> str:
        return f"ArenaDocument({self.view.size} nodes, frozen arena view)"


def stored_dictionaries(arena: Any, values: ArenaValues):
    """tid -> the tag's ``ColumnarDocument.tag_dictionary`` as the
    streaming builder wrote it: its window on ``tag_codes`` as a list
    (whose ints every column read off it shares), the values decoded
    from their (kind, ref) pairs in O(distinct values)."""
    codes, offsets, kinds, refs, bounds, valueless = map(arena.buffer, (
        "tag_codes", "tag_offsets", "dict_kind", "dict_ref",
        "dict_offsets", "tag_valueless"))

    def dictionary(tid: int) -> tuple:
        lo, hi = bounds[tid], bounds[tid + 1]
        return (tuple(values.decode(kinds[lo:hi], refs[lo:hi])),
                codes[offsets[tid]:offsets[tid + 1]].tolist(), valueless[tid])
    return dictionary


def view_from_arena(arena: Any) -> "ColumnarDocument":
    """Rebuild a read-only :class:`ColumnarDocument` over *arena*.

    Works for any arena exposing ``buffer(name)`` + ``meta`` with the
    document buffer layout. Node values come from ``meta["values"]``
    when shipped in the header (an in-memory view published through
    :func:`repro.parallel.shm.document_buffers`) or from the typed
    value columns (the streamed-build path); all other columns are
    zero-copy casts.
    """
    from repro.xml.columnar import ColumnarDocument

    meta = arena.meta
    if not isinstance(meta, dict) or meta.get("kind") != "document":
        raise TransportError(
            f"arena does not hold a published document "
            f"(meta kind {meta.get('kind') if isinstance(meta, dict) else meta!r})")
    view = ColumnarDocument.__new__(ColumnarDocument)
    view.size = meta["size"]
    view.starts = arena.buffer("starts")
    view.ends = arena.buffer("ends")
    view.levels = arena.buffer("levels")
    view.parents = arena.buffer("parents")
    view.tag_ids = arena.buffer("tag_ids")
    view.path_ids = arena.buffer("path_ids")
    view.tag_ranks = arena.buffer("tag_ranks")
    if "values" in meta:
        view.values, view.stored_dictionary = meta["values"], None
    else:
        view.values = ArenaValues(arena.buffer)
        view.stored_dictionary = stored_dictionaries(arena, view.values)
    view.tags = meta["tags"]
    view.tag_index = meta["tag_index"]
    view.paths = [tuple(path) for path in meta["paths"]]
    view.path_table = {}  # update-layer interning state; views are frozen
    offs = arena.buffer("tag_offsets")
    nids_cat = arena.buffer("tag_nids")
    starts_cat = arena.buffer("tag_starts")
    ends_cat = arena.buffer("tag_ends")
    view.tag_nids = [nids_cat[offs[t]:offs[t + 1]]
                     for t in range(len(view.tags))]
    view.tag_starts = [starts_cat[offs[t]:offs[t + 1]]
                       for t in range(len(view.tags))]
    view.tag_ends = [ends_cat[offs[t]:offs[t + 1]]
                     for t in range(len(view.tags))]
    poffs = arena.buffer("path_offsets")
    pcat = arena.buffer("path_nids")
    view.nids_by_path = [pcat[poffs[p]:poffs[p + 1]]
                         for p in range(len(view.paths))]
    view.pids_by_last_tag = meta["pids_by_last_tag"]
    view.nodes = ArenaNodes(view)
    view.nid_index = LazyNidIndex(view.starts)
    view.derived = {}
    return view


def attach_arena_document(arena: Any
                          ) -> "tuple[ArenaDocument, ColumnarDocument]":
    """Attach *arena* as a queryable document: (handle, view).

    The handle holds the view, so matchers called with the handle
    resolve it like any document (and the planner's twig statistics
    derive from the same arrays). The caller owns closing the arena
    when done.
    """
    view = view_from_arena(arena)
    return ArenaDocument(view, arena), view
