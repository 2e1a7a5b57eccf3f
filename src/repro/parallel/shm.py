"""Zero-copy job publication: one (buffers, meta) shape, two backings.

The ``shm`` and ``mmap`` transports are the spawn-safe counterparts of
``fork``: the parent lays the job's typed buffers into one arena
**once** — a :class:`~repro.buffers.shm.SharedArena` segment for
``shm``, a :class:`~repro.buffers.mmapfile.FileArena` file for
``mmap`` — ships workers only a tiny descriptor naming the arena, and
each worker attaches ``memoryview`` windows over the same pages.
Nothing heavy is pickled per worker: the decode tables and
vocabularies ride the arena's single pickled meta block. A file arena
never has to fit in memory; pages fault in through the page cache as
queries touch them.

Two job families publish here, into either backing:

* **documents** — :func:`document_buffers` flattens a
  :class:`~repro.xml.columnar.ColumnarDocument` (node columns verbatim;
  the per-tag and per-path posting lists as concatenated data + offset
  buffers, classic CSR). Workers attach with
  :func:`repro.xml.arenaview.attach_arena_document`, whose
  :class:`~repro.xml.arenaview.ArenaDocument` carries memoised node
  stubs, so every registered twig matcher — the navigational ``naive``
  oracle included — runs unchanged.
* **encoded instances** — :func:`instance_buffers` freezes each
  :class:`~repro.engine.encoded.EncodedTrie` into CSR level/offset
  buffers (:func:`~repro.buffers.frozen.freeze_trie`);
  :func:`instance_from_arena` rebuilds trie shells rooted in
  :class:`~repro.buffers.frozen.FrozenTrieNode` adapters, which every
  registered join kernel and the executor's slicing consume as-is.

Lifecycle: the publisher (the executor) owns the arena and closes +
unlinks it when the job's morsels drain; attachers only close. See
:mod:`repro.buffers.shm` for the layout, the resource-tracker
discipline and the ``repro-buf`` leak-check prefix.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.buffers.frozen import FrozenTrie, freeze_trie
from repro.buffers.shm import SharedArena

if TYPE_CHECKING:
    from repro.engine.encoded import EncodedInstance
    from repro.xml.columnar import ColumnarDocument

#: The node columns a document publishes verbatim.
_NODE_COLUMNS = ("starts", "ends", "levels", "parents", "tag_ids",
                 "path_ids", "tag_ranks")


def document_buffers(view: "ColumnarDocument"
                     ) -> "tuple[dict[str, Sequence[int]], dict]":
    """A columnar view flattened to (buffers, meta) for publication.

    Node columns verbatim, per-tag and per-path postings as
    concatenated CSR data + offset buffers, vocabularies and values in
    the pickled meta block; either arena backing packs the buffers.
    """
    buffers: dict[str, Sequence[int]] = {
        column: getattr(view, column) for column in _NODE_COLUMNS}
    tag_offsets = [0]
    tag_nids: list[int] = []
    tag_starts: list[int] = []
    tag_ends: list[int] = []
    for tid in range(len(view.tags)):
        tag_nids.extend(view.tag_nids[tid])
        tag_starts.extend(view.tag_starts[tid])
        tag_ends.extend(view.tag_ends[tid])
        tag_offsets.append(len(tag_nids))
    buffers["tag_nids"] = tag_nids
    buffers["tag_starts"] = tag_starts
    buffers["tag_ends"] = tag_ends
    buffers["tag_offsets"] = tag_offsets
    path_offsets = [0]
    path_nids: list[int] = []
    for nids in view.nids_by_path:
        path_nids.extend(nids)
        path_offsets.append(len(path_nids))
    buffers["path_nids"] = path_nids
    buffers["path_offsets"] = path_offsets
    meta = {
        "kind": "document",
        "size": view.size,
        "tags": list(view.tags),
        "tag_index": dict(view.tag_index),
        "paths": list(view.paths),
        "values": list(view.values),
        "pids_by_last_tag": {tid: list(pids) for tid, pids
                             in view.pids_by_last_tag.items()},
    }
    return buffers, meta


# ---------------------------------------------------------------------------
# encoded instances
# ---------------------------------------------------------------------------

def instance_buffers(instance: "EncodedInstance", algorithm: str
                     ) -> "tuple[dict[str, Sequence[int]], dict]":
    """An encoded instance frozen to (buffers, meta) for publication.

    Each trie freezes to CSR level/offset buffers
    (``t{i}.l{level}`` / ``t{i}.o{level}``); the meta block carries the
    decode tables, participation map and output attributes once, and
    for ``xjoin`` the twig-filter object (callers guarantee the instance
    is twig-free — validators pin live documents and never serialize);
    never the query or its relations' rows.
    """
    buffers: dict[str, Sequence[int]] = {}
    descriptors: list[dict[str, Any]] = []
    for index, trie in enumerate(instance.tries):
        layout = freeze_trie(trie)
        for level, keys in enumerate(layout.levels):
            buffers[f"t{index}.l{level}"] = keys
        for level, offsets in enumerate(layout.offsets):
            if offsets is not None:
                buffers[f"t{index}.o{level}"] = offsets
        descriptors.append({"name": trie.name, "order": trie.order,
                            "size": trie.size, "depth": trie.depth})
    meta: dict[str, Any] = {
        "kind": "instance",
        "name": instance.name,
        "order": instance.order,
        "attributes": instance.attributes,
        "participation": instance.participation,
        "level_values": instance._level_values,
        "tries": descriptors,
    }
    if algorithm == "xjoin":
        meta["twig_filters"] = instance.twig_filters
        meta["erase_structural"] = instance.erase_structural
    return buffers, meta


def publish_instance(instance: "EncodedInstance",
                     algorithm: str) -> SharedArena:
    """Publish an encoded instance's frozen tries into a segment."""
    buffers, meta = instance_buffers(instance, algorithm)
    return SharedArena.publish(buffers, meta)


def instance_from_arena(arena) -> "EncodedInstance":
    """Rebuild an instance shell over an attached arena (either backing).

    Each trie shell's root is a :class:`FrozenTrieNode` over the zero-
    copy level buffers; the kernels and
    :func:`~repro.parallel.slicing.sliced_instance` consume it through
    the same node surface as a built trie.
    """
    from repro.engine.encoded import EncodedInstance, EncodedTrie

    meta = arena.meta
    tries = []
    for index, descriptor in enumerate(meta["tries"]):
        depth = descriptor["depth"]
        levels = [arena.buffer(f"t{index}.l{level}")
                  for level in range(depth)]
        offsets: "list[Sequence[int] | None]" = [None] + [
            arena.buffer(f"t{index}.o{level}")
            for level in range(1, depth)]
        frozen = FrozenTrie(descriptor["name"], descriptor["order"],
                            descriptor["size"], levels, offsets)
        trie = EncodedTrie.__new__(EncodedTrie)
        trie.name = descriptor["name"]
        trie.order = tuple(descriptor["order"])
        trie.size = descriptor["size"]
        trie.root = frozen.root()
        tries.append(trie)
    instance = EncodedInstance.__new__(EncodedInstance)
    instance.name = meta["name"]
    instance.order = tuple(meta["order"])
    instance.attributes = tuple(meta["attributes"])
    instance.dictionaries = {}
    instance.tries = tries
    instance.twigs = ()
    instance.twig_filters = meta.get("twig_filters")
    instance.erase_structural = meta.get("erase_structural", False)
    instance.participation = meta["participation"]
    instance._level_values = meta["level_values"]
    return instance


def attach_instance(name: str) -> "tuple[SharedArena, EncodedInstance]":
    """Attach a published instance; returns (arena, instance shell)."""
    arena = SharedArena.attach(name)
    return arena, instance_from_arena(arena)
