"""Delta application for XML documents and their columnar views.

A :class:`DocumentEditor` is the only sanctioned way to mutate an
:class:`~repro.xml.model.XMLDocument` without paying a full
``reindex()`` + columnar rebuild per change. A subtree insert or delete
attaches or detaches the tree node, then :func:`_splice` replaces the
view's node block ``[q, q + removed)`` with the new subtree's rows
(none for a delete), in place:

* the region labels (``start``/``end``/``level``) on the node objects —
  a suffix shift plus an ancestor-chain fix-up, never a whole-tree
  re-annotation;
* the buffers of the document's :class:`~repro.xml.columnar.
  ColumnarDocument` (``document.view``: node columns, per-tag postings,
  per-path node lists, ``parents``), each through one
  :func:`repro.buffers.layout.splice` of the block plus its shifted
  tail — splices ride the typed arrays' amortized resize, and a label
  that outgrows a column's typecode comes back as a widened copy, which
  is why every splice site rebinds the view slot to the helper's return
  value; the nodes' posting positions (``tag_ranks``) are numbered
  afresh, in C.

The inserted rows come from the walk that builds a whole view
(:func:`repro.xml.columnar.node_rows`), so tags and paths new with the
subtree are interned exactly as a fresh build interns them.

Every edit bumps the document version and resets what the view has
derived (:class:`~repro.xml.columnar.DocumentStats` included: the next
read summarises the maintained postings, no tree walk; a value edit
drops only what reads the edited tag's values, ``view.forget_values``),
so every twig algorithm, validator and planner estimate reads the
patched state. The columnar twig kernel (:mod:`repro.xml.accel`)
inherits delta maintenance through exactly this path: its inputs *are*
the maintained postings and the ``parents`` / region-label columns, so
``accel`` reads the patched arrays with no maintenance code of its own
(the update oracle's ``test_accel_tracks_update_stream`` regime checks
this per edit).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import count

from repro.buffers.layout import make, pack, set_at, splice
from repro.errors import UpdateError
from repro.updates.delta import (
    SUBTREE_DELETE,
    SUBTREE_INSERT,
    VALUE_CHANGE,
    DocumentDelta,
)
from repro.xml.columnar import ColumnarDocument, columnar, node_rows
from repro.xml.encoding import annotate_regions
from repro.xml.model import XMLDocument, XMLNode

#: The rows a delete splices in: none.
_NO_ROWS = ((),) * 8


class DocumentEditor:
    """Applies subtree inserts/deletes and value edits as deltas."""

    def __init__(self, document: XMLDocument):
        self.document = document
        #: Optional write-barrier, called with the document *before* the
        #: first mutation of every edit (labels, arrays and tree still in
        #: the pre-edit state). The MVCC layer
        #: (:class:`~repro.mvcc.manager.SnapshotManager`) hooks in here
        #: to freeze a clone of any version a snapshot still pins.
        self.on_before_change = None

    # -- helpers -----------------------------------------------------------

    def _notify_before_change(self) -> None:
        """Run the write-barrier; the edit's validations have passed and
        no state — tree, labels, columnar arrays — is mutated yet."""
        if self.on_before_change is not None:
            self.on_before_change(self.document)

    def _nid_of(self, view: ColumnarDocument, node: XMLNode) -> int:
        nid = (view.nid_index.get(node.start)
               if node.start is not None else None)
        if nid is None or view.nodes[nid] is not node:
            raise UpdateError(
                f"node <{node.tag}> does not belong to the edited document")
        return nid

    def _finish(self, kind: str, nodes: int, start: int) -> DocumentDelta:
        return DocumentDelta(kind=kind, version=self.document.bump_version(),
                             nodes=nodes, start=start)

    # -- operations --------------------------------------------------------

    def change_value(self, node: XMLNode, text: str) -> DocumentDelta:
        """Replace *node*'s text content; labels and structure unchanged."""
        view = columnar(self.document)
        nid = self._nid_of(view, node)
        self._notify_before_change()
        node.text = text
        view.values[nid] = node.value
        view.forget_values(node.tag)  # labels and postings stand
        return self._finish(VALUE_CHANGE, 1, node.start)

    def insert_subtree(self, parent: XMLNode, subtree: XMLNode, *,
                       index: int | None = None) -> DocumentDelta:
        """Attach *subtree* as a child of *parent* at *index* (default:
        last), splicing its rows into the view in place."""
        if subtree.parent is not None:
            raise UpdateError(
                f"subtree root <{subtree.tag}> is already attached")
        # Only a document root carries start label 0, and roots never
        # detach — so this rejects both inserting this document's own
        # root under a descendant (a cycle) and stealing another live
        # document's tree, while still allowing re-insertion of a
        # previously deleted (start > 0) subtree.
        if subtree.start == 0:
            raise UpdateError(
                f"subtree root <{subtree.tag}> is a document's root; "
                f"insert a detached copy instead (XMLNode.copy)")
        view = columnar(self.document)
        parent_nid = self._nid_of(view, parent)
        if index is None:
            index = len(parent.children)
        if not 0 <= index <= len(parent.children):
            raise UpdateError(
                f"insert index {index} out of range for <{parent.tag}> "
                f"with {len(parent.children)} children")
        self._notify_before_change()
        # The subtree takes the labels from s0 on, and the node ids from
        # q on, of the nodes it goes before.
        s0 = parent.children[index].start if index < len(parent.children) \
            else parent.end
        q = bisect_left(view.starts, s0)
        subtree.parent = parent
        parent.children.insert(index, subtree)
        annotate_regions(subtree, start=s0, level=parent.level + 1)
        rows = node_rows(subtree, view.tags, view.tag_index, view.paths,
                         view.path_table, first_nid=q,
                         parent_nid=parent_nid,
                         parent_pid=view.path_ids[parent_nid])
        _splice(view, q, 0, rows)
        return self._finish(SUBTREE_INSERT, len(rows[0]), s0)

    def delete_subtree(self, node: XMLNode) -> DocumentDelta:
        """Detach *node*'s whole subtree, splicing its rows out of the
        view in place."""
        if node.parent is None:
            raise UpdateError("cannot delete the document root")
        view = columnar(self.document)
        q = self._nid_of(view, node)
        start = node.start
        self._notify_before_change()
        removed = (node.end - start + 1) // 2  # type: ignore[operator]
        _splice(view, q, removed, _NO_ROWS)
        node.parent.children.remove(node)
        node.parent = None
        return self._finish(SUBTREE_DELETE, removed, start)

    def __repr__(self) -> str:
        return f"DocumentEditor({self.document!r})"


def _splice_shift(buf, lo: int, hi: int, block, delta: int):
    """*buf* with ``buf[lo:hi]`` replaced by *block* and every entry
    past it moved by *delta*: one splice; returns the live buffer."""
    return splice(buf, lo, len(buf),
                  [*block, *[value + delta for value in buf[hi:]]])


def _splice(view: ColumnarDocument, q: int, removed: int, rows) -> None:
    """Replace *view*'s node block ``[q, q + removed)`` with *rows*
    (:func:`~repro.xml.columnar.node_rows`' lists, numbered from *q*):
    the tree labels past the block and the block's ancestors' ends,
    the node columns, per-tag postings and per-path node lists, all
    moved by one signed shift; then the posting ranks are renumbered
    and what the view derived is reset."""
    nodes, starts, ends, levels, parents, tag_ids, values, path_ids = rows
    end = q + removed
    moved = len(nodes) - removed  # node ids past the block move by it
    shift = 2 * moved  # and region labels by twice it
    # The block hangs under the removed root's parent, or the new one's.
    ancestors = view.ancestry(view.parents[q] if removed else parents[0])

    # Tree labels: the nodes past the block move, the ancestors' regions
    # stretch or shrink around it.
    for node in view.nodes[end:]:
        node.start += shift
        node.end += shift
    for nid in ancestors:
        view.nodes[nid].end += shift

    # Node columns.
    view.starts = _splice_shift(view.starts, q, end, starts, shift)
    column = _splice_shift(view.ends, q, end, ends, shift)
    for nid in ancestors:
        column = set_at(column, nid, column[nid] + shift)
    view.ends = column
    tail = [nid + moved if nid >= q else nid for nid in view.parents[end:]]
    view.parents = splice(view.parents, q, len(view.parents),
                          [*parents, *tail])
    view.levels = splice(view.levels, q, end, levels)
    view.tag_ids = splice(view.tag_ids, q, end, tag_ids)
    view.path_ids = splice(view.path_ids, q, end, path_ids)
    view.nodes[q:end] = nodes
    view.values[q:end] = values
    view.size += moved

    # Postings and path lists: each replaces its entries in the block
    # with the new block's (one contiguous sorted run) and moves the
    # entries past it. Tags and paths new with the block start empty —
    # narrow, the splices widen them to fit.
    for _ in range(len(view.tag_nids), len(view.tags)):
        view.tag_nids.append(make("B"))
        view.tag_starts.append(make("B"))
        view.tag_ends.append(make("B"))
    for pid in range(len(view.nids_by_path), len(view.paths)):
        view.nids_by_path.append(make("B"))
        view.pids_by_last_tag.setdefault(
            view.tag_index[view.paths[pid][-1]], []).append(pid)
    by_tag: dict[int, list[int]] = {}
    by_path: dict[int, list[int]] = {}
    for nid, tid, pid in zip(count(q), tag_ids, path_ids):
        by_tag.setdefault(tid, []).append(nid)
        by_path.setdefault(pid, []).append(nid)
    for tid, nids in enumerate(view.tag_nids):
        lo = bisect_left(nids, q)
        new = by_tag.get(tid, ())
        if lo == len(nids) and not new:
            continue
        hi = bisect_left(nids, end, lo)
        view.tag_nids[tid] = _splice_shift(nids, lo, hi, new, moved)
        view.tag_starts[tid] = _splice_shift(
            view.tag_starts[tid], lo, hi, [starts[nid - q] for nid in new],
            shift)
        view.tag_ends[tid] = _splice_shift(
            view.tag_ends[tid], lo, hi, [ends[nid - q] for nid in new],
            shift)
    for nid in ancestors:  # before the block: their ranks stand
        tid, rank = view.tag_ids[nid], view.tag_ranks[nid]
        column = view.tag_ends[tid]
        view.tag_ends[tid] = set_at(column, rank, column[rank] + shift)
    for pid, nids in enumerate(view.nids_by_path):
        lo = bisect_left(nids, q)
        new = by_path.get(pid, ())
        if lo == len(nids) and not new:
            continue
        view.nids_by_path[pid] = _splice_shift(
            nids, lo, bisect_left(nids, end, lo), new, moved)

    view.nid_index = dict(zip(view.starts, count()))
    ranks = [0] * view.size
    for nids in view.tag_nids:
        deque(map(ranks.__setitem__, nids, count()), maxlen=0)
    view.tag_ranks = pack(ranks, hi=max(view.size - 1, 0))
    view.derived = {}
