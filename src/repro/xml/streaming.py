"""SAX-streaming columnar builder: XML text -> FileArena, no node tree.

The whole-string path (:func:`repro.xml.parser.parse_document` then
``ColumnarDocument``) holds every corpus in memory twice — the node
tree and the columns. For larger-than-RAM corpora
:func:`stream_document` hands a :class:`StreamingBuilder` to the shared
token kernel (:func:`repro.xml.scanner.scan_windows`), which calls its
handlers; the builder writes the ``ColumnarDocument`` columns and
postings straight into a bump-allocating
:class:`~repro.buffers.mmapfile.ArenaWriter`:

* the nine per-node columns (``starts ends levels parents tag_ids
  path_ids tag_ranks val_kind val_ref``) grow in lockstep, one row per
  element *open* in pre-order — the in-memory build's node ids; a
  node's ``tag_ranks`` entry, its position in its tag's posting, comes
  from a per-tag counter. Rows wait in a bounded row group that is
  transposed into the columns with one bulk ``extend`` each. A leaf's
  row is written whole (end label = start label + 1); for an element
  with children, ``ends`` and the value pair, known only on element
  *close*, are patched into the row while it is in the group and
  through ``ColumnWriter.set_at`` afterwards;
* per-tag and per-path node-id postings spill to one bucket column
  each and are merged (back-to-back CSR concatenation + offsets) at
  finish, with ``tag_starts`` / ``tag_ends`` gathered from mmap
  snapshots of the label columns — within a tag, nid order *is* start
  order, so the postings come out sorted for free;
* node values are typed once on close (``XMLNode.value``: stripped
  text through :func:`~repro.relational.schema.parse_value`) into
  per-kind data columns and a UTF-8 string heap, decoded lazily by
  :class:`~repro.xml.arenaview.ArenaValues`;
* at finish, each tag's value dictionary (``ColumnarDocument.
  tag_dictionary``): ``tag_codes`` beside ``tag_nids``, each distinct
  value's first holder's (kind, ref) (``dict_kind`` / ``dict_ref`` /
  ``dict_offsets``; no second heap) and ``tag_valueless``.

Peak heap is O(depth + tags + one row group + bounded spill tails, and
one tag's distinct values + one chunk at finish), independent of
document size (bucket and value appends go straight to the columns'
tails, spilled once per row group). The columns are identical, row for
row, to ``ColumnarDocument(parse_document(text))``; the arena parity
suite asserts it across every registered twig algorithm.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from contextlib import ExitStack
from itertools import accumulate, chain
from string import ascii_letters

from repro.buffers.mmapfile import ArenaWriter, FileArena
from repro.relational.schema import parse_value
from repro.xml.arenaview import (
    VALUE_BIGINT,
    VALUE_COLUMNS,
    VALUE_FLOAT,
    VALUE_INT,
    VALUE_NONE,
    VALUE_STR,
    ArenaValues,
)
from repro.xml.columnar import TagCoder
from repro.xml.scanner import iter_events, scan_windows  # noqa: F401

_INT64 = 2 ** 63

#: Nodes held as rows before one transposed flush into the columns.
_ROW_GROUP = 2048
#: The per-node lockstep columns, in row order.
_ROW_COLUMNS = (("starts", "I"), ("ends", "I"), ("levels", "I"),
                ("parents", "i"), ("tag_ids", "I"), ("path_ids", "I"),
                ("tag_ranks", "I"), ("val_kind", "B"), ("val_ref", "I"))
_END, _VAL_KIND, _VAL_REF = 1, 7, 8  # the row slots patched on close

#: First characters no ``int()`` / ``float()`` literal starts with: the
#: ASCII letters but those of ``inf`` / ``nan`` in either case. Such
#: text is a string without asking :func:`parse_value`, whose answer
#: costs two raised ``ValueError``s.
_NEVER_NUMERIC = frozenset(ascii_letters) - frozenset("iInN")


class StreamingBuilder:
    """Scan handlers writing columnar state into an ArenaWriter.

    Carries only the open-element stack, the (small) tag/path intern
    tables, one row group (and its strings) and the writers' spill
    tails. Region labels replay
    :func:`~repro.xml.encoding.annotate_regions` exactly (one global
    counter: ``start`` on entry, ``end`` on exit), so node ids, labels
    and postings are byte-identical to the in-memory build.
    """

    def __init__(self, writer: ArenaWriter):
        self.writer = writer
        self._columns = [writer.column(name, typecode)
                         for name, typecode in _ROW_COLUMNS]
        self._ends, self._val_kind, self._val_ref = (
            self._columns[slot] for slot in (_END, _VAL_KIND, _VAL_REF))
        self._values = [writer.column(name, typecode) for name, typecode in (
            ("val_int", "q"), ("val_float", "d"), ("val_str_off", "Q"),
            ("val_str_len", "I"), ("val_str_heap", "B"))]
        self._strings: list[str] = []  # the strings since the last flush
        self._stored = 0  # the strings stored so far, flushed or not
        self._counter = 0  # the region-label counter
        self._rows: "list" = []  # nodes from _flushed on; open ones: lists
        self._flushed = 0
        self._tag_index: dict[str, int] = {}
        self._ranks: list[int] = []  # per tid: nodes so far, the next rank
        self._paths: "list[tuple[str, ...]]" = []
        self._ids: "dict[tuple[int, str], tuple[int, int]]" = {}
        self._tag_buckets: "list" = []   # per-tid spilled nid columns
        self._path_buckets: "list" = []  # per-pid spilled nid columns
        # Open-element frames: (nid, pid, row, text parts).
        self._stack: "list[tuple[int, int, list[int], list[str]]]" = []

    # -- event handlers ----------------------------------------------------

    def _intern(self, parent_pid: int, tag: str) -> "tuple[int, int]":
        """The (tid, pid) of a first *tag* child on path *parent_pid*."""
        tid = self._tag_index.get(tag)
        if tid is None:
            tid = self._tag_index[tag] = len(self._tag_index)
            self._ranks.append(0)
            self._tag_buckets.append(self._bucket(f"tag_bucket_{tid}"))
        pid = len(self._paths)
        prefix = self._paths[parent_pid] if parent_pid >= 0 else ()
        self._paths.append(prefix + (tag,))
        self._path_buckets.append(self._bucket(f"path_bucket_{pid}"))
        self._ids[parent_pid, tag] = tid, pid
        return tid, pid

    def _bucket(self, name: str):
        """A spill-only column of node ids (one per tag, one per path)."""
        return self.writer.column(name, "I", chunk_items=4096,
                                  register=False)

    def start(self, tag: str, attributes: "dict[str, str]") -> None:
        """Open an element as a leaf; ``end`` patches its end and value."""
        self.leaf(tag, attributes, "")
        self._counter -= 1
        rows = self._rows
        rows[-1] = row = list(rows[-1])
        self._stack.append((self._flushed + len(rows) - 1, row[5], row, []))

    def text(self, text: str) -> None:
        """Text content of the innermost open element."""
        self._stack[-1][3].append(text)

    def end(self, _tag: str) -> None:
        """Close the innermost element."""
        nid, _pid, row, parts = self._stack.pop()
        stripped = "".join(parts).strip()
        kind, ref = self._store_value(stripped) if stripped \
            else (VALUE_NONE, 0)
        if nid >= self._flushed:  # still in the row group
            row[_END] = self._counter
            row[_VAL_KIND] = kind
            row[_VAL_REF] = ref
        else:
            self._ends.set_at(nid, self._counter)
            if kind != VALUE_NONE:
                self._val_kind.set_at(nid, kind)
                self._val_ref.set_at(nid, ref)
        self._counter += 1

    def leaf(self, tag: str, _attributes: dict, text: str) -> None:
        """An element with no child element: its whole row at once."""
        text = text.strip()
        kind, ref = self._store_value(text) if text else (VALUE_NONE, 0)
        stack = self._stack
        parent_nid, parent_pid = stack[-1][:2] if stack else (-1, -1)
        tid, pid = self._ids.get((parent_pid, tag)) \
            or self._intern(parent_pid, tag)
        rows = self._rows
        if len(rows) >= _ROW_GROUP:
            self._flush_rows()
        nid = self._flushed + len(rows)
        rank = self._ranks[tid]
        self._ranks[tid] = rank + 1
        label = self._counter
        self._counter = label + 2
        rows.append((label, label + 1, len(stack), parent_nid, tid, pid,
                     rank, kind, ref))
        self._tag_buckets[tid].tail.append(nid)
        self._path_buckets[pid].tail.append(nid)

    def _flush_rows(self) -> None:
        """Transpose the row group into its columns (one bulk extend
        each; ``set_at`` patches later), encode its strings and spill."""
        for column, values in zip(self._columns, zip(*self._rows)):
            column.extend(values)
        self._flushed += len(self._rows)
        self._rows.clear()
        data = [text.encode("utf-8") for text in self._strings]
        self._strings.clear()
        sizes = list(map(len, data))
        offsets, lengths, heap = self._values[2:]
        offsets.extend(list(accumulate(sizes, initial=len(heap)))[:-1])
        lengths.extend(sizes)
        heap.extend(b"".join(data))
        for column in chain(self._values, self._tag_buckets,
                            self._path_buckets):
            column.spill()

    def _store_value(self, text: str) -> "tuple[int, int]":
        """Append the typed value of *text* (the ``XMLNode.value``
        semantics); its ``(kind, ref)`` pair."""
        value = text if text[0] in _NEVER_NUMERIC else parse_value(text)
        if value is not text:  # a number
            ints, floats = self._values[:2]
            if isinstance(value, float):
                floats.tail.append(value)
                return VALUE_FLOAT, len(floats) - 1
            if -_INT64 <= value < _INT64:
                ints.tail.append(value)
                return VALUE_INT, len(ints) - 1
            text = str(value)  # a bigint, stored as its digits
        self._strings.append(text)
        self._stored += 1
        return (VALUE_STR if value is text else VALUE_BIGINT,
                self._stored - 1)

    # -- assembly ----------------------------------------------------------

    def _dictionaries(self) -> None:
        """Write each tag's value dictionary through a
        :class:`~repro.xml.columnar.TagCoder`: its posting's values
        decoded once, a chunk at a time, the ids spilled, then read back
        as codes."""
        writer, chunk = self.writer, self.writer.chunk_items
        codes_out = writer.column("tag_codes", "I")
        kinds_out = writer.column("dict_kind", "B")
        refs_out = writer.column("dict_ref", "I")
        sizes, valueless = [0], []
        with ExitStack() as stack:
            views = [stack.enter_context(column.snapshot()) for column in (
                self._val_kind, self._val_ref, *self._values)]
            values = ArenaValues(dict(zip(VALUE_COLUMNS, views)).__getitem__)
            kind_of, ref_of = views[0].__getitem__, views[1].__getitem__
            for tid, bucket in enumerate(self._tag_buckets):
                coder, first_kinds, first_refs = TagCoder(), [], []
                spill = writer.column(f"dict_ids_{tid}", "i", register=False)
                with bucket.snapshot() as nids_v:
                    for lo in range(0, len(nids_v), chunk):
                        with nids_v[lo:lo + chunk] as nids:
                            kinds = list(map(kind_of, nids))
                            refs = list(map(ref_of, nids))
                        ids, held = coder.ids(values.decode(kinds, refs))
                        spill.extend(ids)
                        first_kinds += map(kinds.__getitem__, held)
                        first_refs += map(refs.__getitem__, held)
                table, order = coder.table()
                with spill.snapshot() as ids_v:
                    for lo in range(0, len(ids_v), chunk):
                        with ids_v[lo:lo + chunk] as ids:
                            codes_out.extend(coder.codes(ids))
                spill.discard()
                kinds_out.extend(map(first_kinds.__getitem__, order))
                refs_out.extend(map(first_refs.__getitem__, order))
                sizes.append(sizes[-1] + len(table))
                valueless.append(coder.valueless)
        writer.add_buffer("dict_offsets", array("Q", sizes))
        writer.add_buffer("tag_valueless", array("Q", valueless))

    def finish(self) -> FileArena:
        """Merge the spilled postings and assemble the owning arena."""
        writer = self.writer
        self._flush_rows()
        starts, ends = self._columns[0], self._ends
        tag_starts = writer.column("tag_starts", "I")
        tag_ends = writer.column("tag_ends", "I")
        with starts.snapshot() as starts_v, ends.snapshot() as ends_v:
            for bucket in self._tag_buckets:
                with bucket.snapshot() as nids_v:
                    # Slices keep the gathered tails bounded.
                    for lo in range(0, len(nids_v), writer.chunk_items):
                        with nids_v[lo:lo + writer.chunk_items] as nids:
                            tag_starts.extend(
                                map(starts_v.__getitem__, nids))
                            tag_ends.extend(map(ends_v.__getitem__, nids))
        self._dictionaries()
        writer.concat("tag_nids", "I", self._tag_buckets)
        writer.add_buffer("tag_offsets", array(
            "Q", [0, *accumulate(map(len, self._tag_buckets))]))
        writer.concat("path_nids", "I", self._path_buckets)
        writer.add_buffer("path_offsets", array(
            "Q", [0, *accumulate(map(len, self._path_buckets))]))
        pids_by_last_tag: "dict[int, list[int]]" = {}
        for tid, pid in self._ids.values():
            pids_by_last_tag.setdefault(tid, []).append(pid)
        return writer.finish({
            "kind": "document",
            "size": self._flushed,
            "tags": list(self._tag_index),
            "tag_index": self._tag_index,
            "paths": self._paths,
            "pids_by_last_tag": pids_by_last_tag,
        })


def stream_document(chunks: Iterable[str], *,
                    path: str | None = None) -> FileArena:
    """Build a queryable :class:`FileArena` from chunked XML text.

    No node-object tree and no whole-document string ever exist.
    Returns the **owning** attached arena (close + unlink when done);
    open a view with :meth:`ColumnarDocument.from_arena
    <repro.xml.columnar.ColumnarDocument.from_arena>` (queries are
    served off the file through the page cache) or attach from another
    process with :meth:`FileArena.attach
    <repro.buffers.mmapfile.FileArena.attach>` and
    :func:`repro.xml.arenaview.attach_arena_document`.
    """
    writer = ArenaWriter(path=path)
    try:
        builder = StreamingBuilder(writer)
        for _window in scan_windows(chunks, builder):
            pass
        return builder.finish()
    except BaseException:
        writer.abort()
        raise
