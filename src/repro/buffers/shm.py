"""Arenas: typed buffers published once and attached zero-copy.

An arena is one mapping laid out as::

    [8-byte little-endian header length]
    [pickled header: (meta object, directory)]
    [16-byte-aligned typed buffers, one per directory entry]

The *directory* maps buffer names to ``(typecode, offset, count)``
triples (offsets relative to the aligned data region), so an attaching
process reads the header once and then casts ``memoryview`` windows —
no per-buffer pickling, no copies. The *meta* object is arbitrary
picklable state (decode tables, tag/path vocabularies) serialized
exactly once by the publisher; attachers unpickle it from the arena
rather than receiving it per-process.

The layout is written in one place (:func:`arena_image`) and read in
one place (:class:`Arena`), whatever holds the bytes: a
:class:`SharedArena` is one ``multiprocessing.shared_memory`` segment,
a :class:`~repro.buffers.mmapfile.FileArena` a file mapped read-only.

Lifecycle: the publisher owns the backing and must call
:meth:`~Arena.close` + :meth:`~Arena.unlink` when the job finishes;
attachers call :meth:`~Arena.close` only. Attaching a segment skips
the ``resource_tracker`` registration entirely (Python 3.12 and
earlier auto-register attachments, which would otherwise unlink the
publisher's segment when the worker exits and spam leak warnings).
Segment names carry the ``repro-buf`` prefix so the leak check in the
CI smoke can assert ``/dev/shm`` is clean after a run.
"""

from __future__ import annotations

import glob
import os
import pickle
import secrets
import struct
import threading
from array import array
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Any

from repro.buffers.layout import typecode_for
from repro.errors import TransportError

#: Segment-name prefix; the CI smoke greps /dev/shm for leftovers.
SEGMENT_PREFIX = "repro-buf"


def leaked_segments() -> tuple[str, ...]:
    """Arena segments still visible in ``/dev/shm`` (leak check)."""
    return tuple(sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")))


_ALIGN = 16
_LEN = struct.Struct("<Q")


def _aligned(offset: int) -> int:
    """*offset* rounded up to the arena alignment."""
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


#: Guards the one-time install of the resource-tracker shim.
_TRACKER_LOCK = threading.Lock()
_TRACKER_SHIM_INSTALLED = False

#: Per-thread attach-nesting depth: the shim skips registration only
#: for the thread that is actually inside an attach, so a concurrent
#: publisher's *create* on another thread still registers normally.
_ATTACH_DEPTH = threading.local()


def _install_tracker_shim() -> None:
    """Install the skip-shim over ``resource_tracker.register`` once.

    The shim is permanent (never uninstalled) and consults the calling
    thread's attach depth, so installs race-free under concurrent
    ``asyncio.to_thread`` attaches — the previous implementation swapped
    the global function in and restored it on exit, which let one
    thread restore the original while another was mid-attach (or
    clobber the shim with a stale reference permanently).
    """
    global _TRACKER_SHIM_INSTALLED
    if _TRACKER_SHIM_INSTALLED:
        return
    with _TRACKER_LOCK:
        if _TRACKER_SHIM_INSTALLED:
            return
        try:
            from multiprocessing import resource_tracker
        except ImportError:  # pragma: no cover - tracker absent
            _TRACKER_SHIM_INSTALLED = True
            return
        original = resource_tracker.register

        def _register(name: str, rtype: str) -> None:
            if rtype == "shared_memory" \
                    and getattr(_ATTACH_DEPTH, "depth", 0) > 0:
                return
            original(name, rtype)

        resource_tracker.register = _register
        _TRACKER_SHIM_INSTALLED = True


@contextmanager
def _untracked():
    """Suppress resource-tracker registration while attaching.

    Attachers must not own cleanup: Python 3.12 and earlier auto-register
    every ``SharedMemory(name=...)`` attachment, so a worker exiting
    would unlink the publisher's live segment and the shared tracker
    process would log spurious KeyErrors once several attachers
    deregister the same name. Skipping the registration (the documented
    workaround for bpo-39959) keeps the tracker's books balanced: only
    the publisher's create is ever registered.

    Thread-safe: the shim installs process-wide exactly once (under
    :data:`_TRACKER_LOCK`) and skips only on threads whose attach depth
    is non-zero, so concurrent attaches never race on the global
    ``register`` binding.
    """
    _install_tracker_shim()
    depth = getattr(_ATTACH_DEPTH, "depth", 0)
    _ATTACH_DEPTH.depth = depth + 1
    try:
        yield
    finally:
        _ATTACH_DEPTH.depth = depth


def _as_array(buf: Any) -> array:
    """*buf* as an ``array`` (publication needs typecode + bytes).

    Typed buffers pass through; memoryviews copy into their format;
    lists (e.g. under the parity suite's list backend) pack into the
    narrowest fitting typecode here, outside the
    :func:`~repro.buffers.layout.pack` switch.
    """
    if isinstance(buf, array):
        return buf
    if isinstance(buf, memoryview):
        out = array(buf.format)
        out.extend(buf)
        return out
    values = list(buf)
    hi = max(values, default=0)
    lo = min(min(values, default=0), 0)
    return array(typecode_for(hi, lo), values)


def arena_image(entries: "Mapping[str, Any]", meta: Any = None,
                ) -> "tuple[int, Iterator[Any]]":
    """The arena bytes for *entries* + *meta*: (size, pieces in order).

    An entry is anything with a ``typecode``, a length and — unless it
    is an ``array`` — a ``chunks()`` iterable of its bytes (the file
    arena's spilled columns); lists and memoryviews are packed first.
    The pieces, padding included, concatenate to exactly *size* bytes.
    """
    entries = {key: entry if hasattr(entry, "typecode")
               else _as_array(entry) for key, entry in entries.items()}
    directory: dict[str, tuple[str, int, int]] = {}
    offset = 0
    for key, entry in entries.items():
        offset = _aligned(offset)
        directory[key] = (entry.typecode, offset, len(entry))
        offset += len(entry) * array(entry.typecode).itemsize
    header = pickle.dumps((meta, directory),
                          protocol=pickle.HIGHEST_PROTOCOL)
    data_start = _aligned(_LEN.size + len(header))

    def pieces() -> "Iterator[Any]":
        yield _LEN.pack(len(header))
        yield header
        position = _LEN.size + len(header)
        for key, entry in entries.items():
            typecode, rel, count = directory[key]
            if data_start + rel > position:
                yield bytes(data_start + rel - position)
            position = data_start + rel + count * array(typecode).itemsize
            if isinstance(entry, array):
                yield memoryview(entry).cast("B")
            else:
                yield from entry.chunks()

    return data_start + offset, pieces()


class Arena:
    """The reader of one arena mapping, whatever backs it.

    Parses and bounds-checks the header once, hands out memoised typed
    views, and owns the close / unlink lifecycle. A backing subclass
    names itself in errors (``_kind`` / ``_transport``) and supplies
    ``_unmap`` (release the mapping) and ``_remove`` (destroy the
    backing, owner only).
    """

    __slots__ = ("address", "owner", "_base", "_meta", "_directory",
                 "_data_start", "_views", "_closed")

    def __init__(self, address: str, base: memoryview, *, owner: bool):
        self.address = address
        self.owner = owner
        self._base = base
        self._views: dict[str, memoryview] = {}
        self._closed = False
        try:
            header_end = _LEN.size + _LEN.unpack_from(base, 0)[0]
            if header_end > len(base):
                raise ValueError(f"the header ends at byte {header_end}, "
                                 f"the mapping has {len(base)}")
            self._meta, self._directory = pickle.loads(
                base[_LEN.size:header_end])
            self._data_start = _aligned(header_end)
            # O(directory): a truncated arena must not attach and serve
            # a short buffer as if it were the published one.
            for key, (typecode, rel, count) in self._directory.items():
                end = (self._data_start + rel
                       + count * array(typecode).itemsize)
                if end > len(base):
                    raise ValueError(
                        f"buffer {key!r} ends at byte {end}, the mapping "
                        f"has {len(base)} (truncated)")
        except Exception as exc:
            self.close()
            raise self._error(address, f"is not a readable arena: {exc}"
                              ) from exc

    @classmethod
    def _error(cls, address: str, what: str) -> TransportError:
        """A :class:`TransportError` naming this backing and *address*."""
        return TransportError(
            f"{cls._kind} {address!r} {what} ({cls._transport} transport)")

    # -- access ------------------------------------------------------------

    @property
    def meta(self) -> Any:
        """The meta object pickled into the arena (once, by the owner)."""
        return self._meta

    def keys(self) -> list[str]:
        """The published buffer names."""
        return list(self._directory)

    def buffer(self, key: str) -> memoryview:
        """A zero-copy typed ``memoryview`` of one published buffer."""
        view = self._views.get(key)
        if view is None:
            if self._closed:
                raise self._error(self.address, "is closed")
            typecode, rel, count = self._directory[key]
            lo = self._data_start + rel
            itemsize = array(typecode).itemsize
            view = self._base[lo:lo + count * itemsize].cast(typecode)
            self._views[key] = view
        return view

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release every exported view and the process-local mapping.

        Straggler views (posting slices or frozen-trie nodes still
        referenced by a drained job) keep the mapping exported; the
        backing then leaves it to the OS at process exit.
        """
        if self._closed:
            return
        self._closed = True
        for view in self._views.values():
            view.release()
        self._views.clear()
        self._base.release()
        self._unmap()

    def unlink(self) -> None:
        """Destroy the backing (owner only; attachments just close)."""
        if self.owner:
            self._remove()

    def __enter__(self) -> "Arena":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
        self.unlink()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.address!r}, "
                f"{len(self._directory)} buffers, owner={self.owner})")


class SharedArena(Arena):
    """An arena in one ``multiprocessing.shared_memory`` segment."""

    __slots__ = ("shm",)

    _kind = "shared-memory segment"
    _transport = "shm"

    def __init__(self, shm: shared_memory.SharedMemory, *, owner: bool):
        self.shm = shm
        super().__init__(shm.name, shm.buf, owner=owner)

    @property
    def name(self) -> str:
        """The segment name attachers pass to :meth:`attach`."""
        return self.address

    @classmethod
    def publish(cls, buffers: "Mapping[str, Any]", meta: Any = None,
                ) -> "SharedArena":
        """Create a segment holding *buffers* and the pickled *meta*.

        Returns the owning arena; the caller must eventually
        :meth:`close` and :meth:`unlink` it.
        """
        size, pieces = arena_image(buffers, meta)
        name = (f"{SEGMENT_PREFIX}-{os.getpid()}-"
                f"{secrets.token_hex(4)}")
        shm = shared_memory.SharedMemory(create=True, size=size,
                                         name=name)
        position = 0
        for piece in pieces:
            shm.buf[position:position + len(piece)] = piece
            position += len(piece)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedArena":
        """Attach to a published segment by name (zero-copy).

        Deregisters the attachment from the resource tracker — the
        publisher owns cleanup (see the module docstring). A vanished
        (or never-published) segment raises
        :class:`~repro.errors.TransportError` naming the segment, so
        worker loops surface a routable engine error instead of a raw
        ``FileNotFoundError``.
        """
        with _untracked():
            try:
                shm = shared_memory.SharedMemory(name=name)
            except FileNotFoundError as exc:
                raise cls._error(
                    name, "has vanished or was never published") from exc
        return cls(shm, owner=False)

    def _unmap(self) -> None:
        try:
            self.shm.close()
        except BufferError:
            # Disarm the destructor so interpreter shutdown stays quiet
            # instead of printing "cannot close exported pointers exist".
            self.shm.close = lambda: None  # type: ignore[method-assign]

    def _remove(self) -> None:
        self.shm.unlink()
