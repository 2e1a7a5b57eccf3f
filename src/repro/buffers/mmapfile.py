"""File-backed mmap arenas: build once on disk, attach zero-copy.

A :class:`FileArena` is the :mod:`repro.buffers.shm` arena layout —
reader, views and lifecycle included — in an ordinary file instead of
a ``/dev/shm`` segment. Attachers open a **read-only** ``mmap`` and
cast typed ``memoryview`` windows over it, so a corpus larger than RAM
serves queries through the page cache: only the pages a query touches
are ever resident, and the mapping is exempt from ``RLIMIT_DATA``
(which is how the CI smoke proves the build+query peak heap stays
bounded).

The :class:`ArenaWriter` is the build-once half: a bump-allocating
writer that streams columns to per-column spill files as values are
appended (bounded tail buffers, never the whole column in memory),
supports backpatching already-appended slots (``set_at`` — the
streaming XML builder patches ``end`` labels when elements close), and
assembles the final header-first arena file on :meth:`finish` through
the shared :func:`~repro.buffers.shm.arena_image`.

The publisher (the process that called :meth:`ArenaWriter.finish` or
:meth:`FileArena.publish`) owns the file and must ``close`` +
``unlink`` it; attachers only ``close``. Every temporary path carries
the ``repro-arena-`` prefix so leak checks can assert the temp
directory is clean after a run (:func:`leaked_arena_files`)."""

from __future__ import annotations

import glob
import mmap
import os
import secrets
import shutil
import tempfile
from array import array
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from functools import partial
from typing import Any

from repro.buffers.shm import Arena, arena_image

#: Temp-name prefix for arena files and spill directories; the CI leak
#: check globs the temp directory for leftovers after every run.
ARENA_PREFIX = "repro-arena-"

#: Items buffered in a column's in-memory tail before a spill write.
DEFAULT_CHUNK_ITEMS = 16384


def arena_temp_path() -> str:
    """A fresh leak-checkable arena file path in the temp directory."""
    return os.path.join(tempfile.gettempdir(),
                        f"{ARENA_PREFIX}{os.getpid()}-"
                        f"{secrets.token_hex(4)}.arena")


def leaked_arena_files() -> list[str]:
    """Leftover ``repro-arena-`` paths in the temp directory."""
    return sorted(glob.glob(os.path.join(tempfile.gettempdir(),
                                         ARENA_PREFIX + "*")))


class FileArena(Arena):
    """An arena in a file, mapped read-only."""

    __slots__ = ("_file", "_mm")

    _kind = "file arena"
    _transport = "mmap"

    def __init__(self, path: str, file, mm: mmap.mmap, *, owner: bool):
        self._file = file
        self._mm = mm
        super().__init__(path, memoryview(mm), owner=owner)

    @property
    def path(self) -> str:
        """The arena file's path (what attachers open)."""
        return self.address

    @classmethod
    def publish(cls, buffers: "Mapping[str, Sequence[int]]",
                meta: Any = None, path: str | None = None) -> "FileArena":
        """Write *buffers* + pickled *meta* to *path* and attach owning.

        The in-memory convenience constructor (mirrors
        :meth:`SharedArena.publish`); corpus-scale builds stream through
        :class:`ArenaWriter` instead. The caller must eventually
        :meth:`close` and :meth:`unlink` the returned arena.
        """
        writer = ArenaWriter(path=path)
        try:
            for key, buf in buffers.items():
                writer.add_buffer(key, buf)
            return writer.finish(meta)
        except BaseException:
            writer.abort()
            raise

    @classmethod
    def attach(cls, path: str, *, owner: bool = False) -> "FileArena":
        """Open *path* read-only and map it (zero-copy attachment).

        A vanished file, one that is not an arena, or one cut short of
        its directory raises :class:`~repro.errors.TransportError`
        naming the path.
        """
        try:
            file = open(path, "rb")
        except FileNotFoundError as exc:
            raise cls._error(
                path, "has vanished or was never published") from exc
        try:
            mm = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            file.close()
            raise cls._error(path, f"is not a readable arena: {exc}"
                             ) from exc
        return cls(path, file, mm, owner=owner)

    def _unmap(self) -> None:
        try:
            self._mm.close()
        except BufferError:
            pass  # straggler views: the OS reclaims the mapping at exit
        self._file.close()

    def _remove(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


class ColumnWriter:
    """One typed column streamed to a spill file as values arrive.

    Appends buffer into a bounded in-memory tail that flushes to the
    (unbuffered) spill file every ``chunk_items`` values, so building a
    column of N values holds O(chunk) values in memory. ``set_at``
    backpatches an already-appended slot — in the unflushed tail by
    mutation, in the flushed region by ``os.pwrite`` — which is how the
    streaming XML builder fills ``end`` labels on element close.
    """

    __slots__ = ("name", "typecode", "itemsize", "path", "_file",
                 "tail", "_flushed", "_chunk")

    def __init__(self, name: str, typecode: str, spill_dir: str,
                 chunk_items: int = DEFAULT_CHUNK_ITEMS):
        self.name = name
        self.typecode = typecode
        self.itemsize = array(typecode).itemsize
        self.path = os.path.join(spill_dir, f"{name}.col")
        # Unbuffered: set_at's pwrite must never interleave with
        # buffered tail flushes.
        self._file = open(self.path, "w+b", buffering=0)
        self.tail = array(typecode)
        self._flushed = 0
        self._chunk = max(1, chunk_items)

    def __len__(self) -> int:
        return self._flushed + len(self.tail)

    def extend(self, values) -> None:
        """Append every value: one bulk copy, then one flush check.

        ``bytes`` go into a ``"B"`` column as a block copy. The tail
        outgrows the chunk by at most ``len(values)``, so callers with
        unbounded input extend in slices.
        """
        if self.typecode == "B" and isinstance(values, bytes):
            self.tail.frombytes(values)
        else:
            self.tail.extend(values)
        self.spill()

    def spill(self) -> None:
        """Flush the tail once it holds a chunk (for appends to ``tail``)."""
        if len(self.tail) >= self._chunk:
            self.flush()

    def set_at(self, index: int, value: int) -> None:
        """Backpatch the value at *index* (appended earlier)."""
        if index >= self._flushed:
            self.tail[index - self._flushed] = value
        else:
            os.pwrite(self._file.fileno(),
                      array(self.typecode, [value]).tobytes(),
                      index * self.itemsize)

    def flush(self) -> None:
        """Spill the in-memory tail to the column file."""
        if self.tail:
            self._file.write(self.tail.tobytes())
            self._flushed += len(self.tail)
            del self.tail[:]

    @contextmanager
    def snapshot(self):
        """A read-only typed view over everything appended so far.

        Flushes, then maps the spill file — random access without
        loading the column on the heap (the finish-time posting gather
        reads ``starts``/``ends`` this way).
        """
        self.flush()
        if not self._flushed:
            yield memoryview(array(self.typecode))
            return
        mm = mmap.mmap(self._file.fileno(),
                       self._flushed * self.itemsize,
                       access=mmap.ACCESS_READ)
        view = memoryview(mm).cast(self.typecode)
        try:
            yield view
        finally:
            view.release()
            mm.close()

    def chunks(self) -> "Iterator[bytes]":
        """The whole column's bytes, read back in 1 MiB pieces."""
        self.flush()
        self._file.seek(0)
        return iter(partial(self._file.read, 1 << 20), b"")

    def discard(self) -> None:
        """Close and delete the spill file."""
        self._file.close()
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


class _ConcatColumns:
    """A directory entry assembled from several spilled columns.

    The streaming builder spills one nid bucket per tag (or path) and
    registers their concatenation as the single CSR data buffer; parts
    are streamed back-to-back at finish, never joined in memory.
    """

    __slots__ = ("typecode", "parts")

    def __init__(self, typecode: str, parts: "list[ColumnWriter]"):
        self.typecode = typecode
        self.parts = parts

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    def chunks(self) -> "Iterator[bytes]":
        for part in self.parts:
            yield from part.chunks()


class ArenaWriter:
    """Bump-allocating, build-once writer for a :class:`FileArena`.

    Register streamed columns with :meth:`column` (spilled to a
    ``repro-arena-`` temp directory as they grow), small in-memory
    buffers with :meth:`add_buffer`, and CSR concatenations with
    :meth:`concat`; :meth:`finish` lays the header + every buffer into
    the final arena file in registration order, removes the spill
    directory, and returns the **owning** attached arena. On failure
    call :meth:`abort` to reclaim the spill space.
    """

    def __init__(self, path: str | None = None, *,
                 chunk_items: int = DEFAULT_CHUNK_ITEMS):
        self.path = path or arena_temp_path()
        self.chunk_items = chunk_items
        self._spill_dir = tempfile.mkdtemp(prefix=ARENA_PREFIX + "spill-")
        self._entries: "dict[str, Any]" = {}
        self._columns: "list[ColumnWriter]" = []
        self._finished = False

    def column(self, name: str, typecode: str, *,
               chunk_items: int | None = None,
               register: bool = True) -> ColumnWriter:
        """A new streamed column; registered as a buffer unless
        ``register=False`` (spill-only, e.g. posting buckets that only
        appear through a later :meth:`concat`)."""
        writer = ColumnWriter(name, typecode, self._spill_dir,
                              chunk_items or self.chunk_items)
        self._columns.append(writer)
        if register:
            self._register(name, writer)
        return writer

    def add_buffer(self, name: str, buf) -> None:
        """Register a small in-memory buffer (array/list/memoryview)."""
        self._register(name, buf)

    def concat(self, name: str, typecode: str,
               parts: "list[ColumnWriter]") -> None:
        """Register the back-to-back concatenation of spilled columns."""
        self._register(name, _ConcatColumns(typecode, parts))

    def _register(self, name: str, entry) -> None:
        if name in self._entries:
            raise ValueError(f"duplicate arena buffer {name!r}")
        self._entries[name] = entry

    def finish(self, meta: Any = None) -> FileArena:
        """Assemble the arena file; returns the owning attached arena."""
        if self._finished:
            raise ValueError("ArenaWriter.finish called twice")
        _size, pieces = arena_image(self._entries, meta)
        with open(self.path, "wb") as out:
            for piece in pieces:
                out.write(piece)
        self._cleanup()
        self._finished = True
        return FileArena.attach(self.path, owner=True)

    def abort(self) -> None:
        """Discard the spill files and any partially written arena."""
        if self._finished:
            return
        self._cleanup()
        self._finished = True
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def _cleanup(self) -> None:
        for column in self._columns:
            column.discard()
        self._columns.clear()
        shutil.rmtree(self._spill_dir, ignore_errors=True)
