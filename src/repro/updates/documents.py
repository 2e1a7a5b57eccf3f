"""Delta application for XML documents and their columnar views.

A :class:`DocumentEditor` is the only sanctioned way to mutate an
:class:`~repro.xml.model.XMLDocument` without paying a full
``reindex()`` + columnar rebuild per change. For a localized edit it

* patches the region labels (``start``/``end``/``level``) on the node
  objects — a suffix shift plus an ancestor-chain fix-up, never a
  whole-tree re-annotation;
* splices the same change into the buffers of the document's
  :class:`~repro.xml.columnar.ColumnarDocument` (``document.view``:
  node columns, per-tag postings, per-path node lists) in place, through the
  :mod:`repro.buffers.layout` helpers — splices ride the typed arrays'
  amortized resize, and a label that outgrows a column's typecode comes
  back as a widened copy, which is why every splice site rebinds the
  view slot (and any local alias) to the helper's return value; the
  nodes' posting positions (``tag_ranks``) are numbered afresh, in C;
* bumps the document version and resets what the view has derived
  (:class:`~repro.xml.columnar.DocumentStats` included: the next read
  summarises the maintained postings, no tree walk; a value edit drops
  only what reads the edited tag's values, ``view.forget_values``), so
  every twig algorithm, validator and planner estimate reads the
  patched state.
  The columnar twig kernel (:mod:`repro.xml.accel`) inherits delta
  maintenance through exactly this path: its inputs *are* the
  maintained postings and the ``parents`` / region-label columns, so
  ``accel`` reads the patched arrays with no maintenance code of its
  own (the update oracle's ``test_accel_tracks_update_stream`` regime
  checks this per edit).

Past a cumulative churn threshold (fraction of the tree touched since
the last rebuild) the editor falls back to ``document.reindex()`` and a
fresh build — label gaps never accumulate, and a sequence of large
edits degrades to the rebuild cost it would have paid anyway.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import count

from repro.buffers.layout import delete, make, pack, set_at, shift_from, \
    shift_tail, splice
from repro.errors import UpdateError
from repro.updates.delta import (
    SUBTREE_DELETE,
    SUBTREE_INSERT,
    VALUE_CHANGE,
    DocumentDelta,
)
from repro.xml.columnar import ColumnarDocument, columnar
from repro.xml.encoding import annotate_regions
from repro.xml.model import XMLDocument, XMLNode


class DocumentEditor:
    """Applies subtree inserts/deletes and value edits as deltas."""

    def __init__(self, document: XMLDocument, *,
                 churn_threshold: float = 0.5):
        self.document = document
        #: Fraction of the tree that may churn before a full rebuild.
        self.churn_threshold = churn_threshold
        self._churn = 0  # nodes touched since the last rebuild
        self.patches = 0
        self.rebuilds = 0
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

    def _ancestor_nids(self, view: ColumnarDocument, nid: int) -> list[int]:
        chain = []
        while nid >= 0:
            chain.append(nid)
            nid = view.parents[nid]
        return chain

    def _should_rebuild(self, touched: int) -> bool:
        size = max(self.document.size(), 1)
        return self._churn + touched > self.churn_threshold * size

    def _finish(self, kind: str, touched: int, start: int, *,
                rebuilt: bool, view: ColumnarDocument | None = None,
                ) -> DocumentDelta:
        document = self.document
        if rebuilt:
            document.reindex()  # bumps the version, drops the view
            self._churn = 0
            self.rebuilds += 1
        else:
            self._churn += touched
            self.patches += 1
            document.bump_version()
            assert view is not None
            if kind != VALUE_CHANGE:  # postings were spliced: re-rank
                ranks = [0] * view.size
                for nids in view.tag_nids:
                    deque(map(ranks.__setitem__, nids, count()), maxlen=0)
                view.tag_ranks = pack(ranks, hi=max(view.size - 1, 0))
                view.derived = {}
        return DocumentDelta(kind=kind, version=document.version,
                             nodes=touched, start=start, rebuilt=rebuilt)

    # -- operations --------------------------------------------------------

    def change_value(self, node: XMLNode, text: str) -> DocumentDelta:
        """Replace *node*'s text content; labels and structure unchanged."""
        view = columnar(self.document)
        nid = self._nid_of(view, node)
        start = node.start
        self._notify_before_change()
        node.text = text
        view.values[nid] = node.value
        view.forget_values(node.tag)  # labels and postings stand
        return self._finish(VALUE_CHANGE, 1, start, rebuilt=False, view=view)

    def insert_subtree(self, parent: XMLNode, subtree: XMLNode, *,
                       index: int | None = None) -> DocumentDelta:
        """Attach *subtree* as a child of *parent* at *index* (default:
        last), patching labels, arrays and postings in place."""
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
        sub_nodes = list(subtree.iter())  # pre-order
        m = len(sub_nodes)
        self._notify_before_change()
        if self._should_rebuild(m):
            subtree.parent = parent
            parent.children.insert(index, subtree)
            anchor = parent.start if parent.start is not None else 0
            return self._finish(SUBTREE_INSERT, m, anchor, rebuilt=True)

        # Label space: the new subtree takes [s0, s0 + 2m); every
        # existing label >= s0 shifts up by 2m. In pre-order terms the
        # subtree takes node ids [q, q + m).
        if index < len(parent.children):
            s0 = parent.children[index].start
        else:
            s0 = parent.end
        assert s0 is not None
        shift = 2 * m
        starts, ends = view.starts, view.ends
        q = bisect_left(starts, s0)
        ancestors = self._ancestor_nids(view, parent_nid)

        # 1. Region labels: suffix shift on nodes at nid >= q, plus the
        # end labels of the insertion point's ancestors (their intervals
        # grow to contain the new subtree).
        for node in view.nodes[q:]:
            node.start += shift
            node.end += shift
        view.starts = starts = shift_tail(starts, q, shift)
        ends = shift_tail(ends, q, shift)
        for a in ancestors:
            view.nodes[a].end += shift
            ends = set_at(ends, a, ends[a] + shift)
        view.ends = ends
        view.parents = shift_from(view.parents, q, q, m)

        # 2. Per-tag postings and per-path node lists: shift entries at
        # nid >= q; fix the ancestors' end entries individually.
        for tid in range(len(view.tags)):
            nids = view.tag_nids[tid]
            pos = bisect_left(nids, q)
            if pos < len(nids):
                view.tag_nids[tid] = shift_tail(nids, pos, m)
                view.tag_starts[tid] = shift_tail(view.tag_starts[tid],
                                                  pos, shift)
                view.tag_ends[tid] = shift_tail(view.tag_ends[tid],
                                                pos, shift)
        for a in ancestors:
            tid = view.tag_ids[a]
            pos = bisect_left(view.tag_nids[tid], a)
            column = view.tag_ends[tid]
            view.tag_ends[tid] = set_at(column, pos, column[pos] + shift)
        for pid, nids in enumerate(view.nids_by_path):
            pos = bisect_left(nids, q)
            if pos < len(nids):
                view.nids_by_path[pid] = shift_tail(nids, pos, m)

        # 3. Attach and label the subtree: regions from s0, levels below
        # the parent.
        subtree.parent = parent
        parent.children.insert(index, subtree)
        annotate_regions(subtree, start=s0, level=parent.level + 1)

        # 4. Build the subtree's columns (pre-order == [q, q + m)) and
        # splice them into the node-level arrays.
        nid_of_sub = {id(node): q + offset
                      for offset, node in enumerate(sub_nodes)}
        sub_starts, sub_ends, sub_levels = [], [], []
        sub_parents, sub_tag_ids, sub_values = [], [], []
        sub_path_ids = []
        by_tid: dict[int, list[int]] = {}
        by_pid: dict[int, list[int]] = {}
        for offset, node in enumerate(sub_nodes):
            nid = q + offset
            sub_starts.append(node.start)
            sub_ends.append(node.end)
            sub_levels.append(node.level)
            sub_parents.append(parent_nid if node is subtree
                               else nid_of_sub[id(node.parent)])
            tid = view.tag_index.get(node.tag)
            if tid is None:
                tid = view.tag_index[node.tag] = len(view.tags)
                view.tags.append(node.tag)
                # Narrow empties; the splices below widen them to fit.
                view.tag_nids.append(make("B"))
                view.tag_starts.append(make("B"))
                view.tag_ends.append(make("B"))
            sub_tag_ids.append(tid)
            sub_values.append(node.value)
            parent_pid = (view.path_ids[parent_nid] if node is subtree
                          else sub_path_ids[
                              nid_of_sub[id(node.parent)] - q])
            key = (parent_pid, tid)
            pid = view.path_table.get(key)
            if pid is None:
                pid = view.path_table[key] = len(view.paths)
                prefix = view.paths[parent_pid] if parent_pid >= 0 else ()
                view.paths.append(prefix + (node.tag,))
                view.nids_by_path.append(make("B"))
                view.pids_by_last_tag.setdefault(tid, []).append(pid)
            sub_path_ids.append(pid)
            by_tid.setdefault(tid, []).append(nid)
            by_pid.setdefault(pid, []).append(nid)
        view.nodes[q:q] = sub_nodes
        view.starts = starts = splice(starts, q, q, sub_starts)
        view.ends = ends = splice(ends, q, q, sub_ends)
        view.levels = splice(view.levels, q, q, sub_levels)
        view.parents = splice(view.parents, q, q, sub_parents)
        view.tag_ids = splice(view.tag_ids, q, q, sub_tag_ids)
        view.values[q:q] = sub_values
        view.path_ids = splice(view.path_ids, q, q, sub_path_ids)
        view.size += m

        # 5. Insert the new posting/path entries: the new nids form one
        # contiguous sorted block per tag and per path.
        for tid, new_nids in by_tid.items():
            nids = view.tag_nids[tid]
            pos = bisect_left(nids, q)
            view.tag_nids[tid] = splice(nids, pos, pos, new_nids)
            view.tag_starts[tid] = splice(
                view.tag_starts[tid], pos, pos,
                [starts[n] for n in new_nids])
            view.tag_ends[tid] = splice(
                view.tag_ends[tid], pos, pos,
                [ends[n] for n in new_nids])
        for pid, new_nids in by_pid.items():
            nids = view.nids_by_path[pid]
            pos = bisect_left(nids, q)
            view.nids_by_path[pid] = splice(nids, pos, pos, new_nids)
        view.nid_index = {start: nid
                          for nid, start in enumerate(starts)}

        return self._finish(SUBTREE_INSERT, m, s0, rebuilt=False, view=view)

    def delete_subtree(self, node: XMLNode) -> DocumentDelta:
        """Detach *node*'s whole subtree, patching everything in place."""
        if node.parent is None:
            raise UpdateError("cannot delete the document root")
        view = columnar(self.document)
        q = self._nid_of(view, node)
        m = (node.end - node.start + 1) // 2  # type: ignore[operator]
        s0 = node.start
        assert s0 is not None
        parent = node.parent
        self._notify_before_change()
        if self._should_rebuild(m):
            parent.children.remove(node)
            node.parent = None
            return self._finish(SUBTREE_DELETE, m, s0, rebuilt=True)

        shift = 2 * m
        parent_nid = view.parents[q]
        ancestors = self._ancestor_nids(view, parent_nid)
        starts, ends = view.starts, view.ends

        # 1. Postings and path lists: drop the dead block, shift the
        # suffix, fix the ancestors' end entries.
        for tid in range(len(view.tags)):
            nids = view.tag_nids[tid]
            lo = bisect_left(nids, q)
            hi = bisect_left(nids, q + m, lo)
            if hi > lo:
                nids = delete(nids, lo, hi)
                view.tag_nids[tid] = nids
                view.tag_starts[tid] = delete(view.tag_starts[tid], lo, hi)
                view.tag_ends[tid] = delete(view.tag_ends[tid], lo, hi)
            if lo < len(nids):
                view.tag_nids[tid] = shift_tail(nids, lo, -m)
                view.tag_starts[tid] = shift_tail(view.tag_starts[tid],
                                                  lo, -shift)
                view.tag_ends[tid] = shift_tail(view.tag_ends[tid],
                                                lo, -shift)
        for a in ancestors:
            tid = view.tag_ids[a]
            pos = bisect_left(view.tag_nids[tid], a)
            column = view.tag_ends[tid]
            view.tag_ends[tid] = set_at(column, pos, column[pos] - shift)
        for pid, nids in enumerate(view.nids_by_path):
            lo = bisect_left(nids, q)
            hi = bisect_left(nids, q + m, lo)
            if hi > lo:
                nids = delete(nids, lo, hi)
                view.nids_by_path[pid] = nids
            if lo < len(nids):
                view.nids_by_path[pid] = shift_tail(nids, lo, -m)

        # 2. Region labels of the survivors.
        for survivor in view.nodes[q + m:]:
            survivor.start -= shift
            survivor.end -= shift
        for a in ancestors:
            view.nodes[a].end -= shift
            ends = set_at(ends, a, ends[a] - shift)

        # 3. Node-level arrays.
        del view.nodes[q:q + m]
        starts = delete(starts, q, q + m)
        view.starts = starts = shift_tail(starts, q, -shift)
        ends = delete(ends, q, q + m)
        view.ends = ends = shift_tail(ends, q, -shift)
        view.levels = delete(view.levels, q, q + m)
        parents = delete(view.parents, q, q + m)
        view.parents = shift_from(parents, q, q + m, -m)
        view.tag_ids = delete(view.tag_ids, q, q + m)
        del view.values[q:q + m]
        view.path_ids = delete(view.path_ids, q, q + m)
        view.size -= m
        view.nid_index = {start: nid
                          for nid, start in enumerate(starts)}

        # 4. Detach.
        parent.children.remove(node)
        node.parent = None

        return self._finish(SUBTREE_DELETE, m, s0, rebuilt=False, view=view)

    def __repr__(self) -> str:
        return (f"DocumentEditor({self.document!r}, {self.patches} patches, "
                f"{self.rebuilds} rebuilds, churn={self._churn})")
