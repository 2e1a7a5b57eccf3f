"""The shared-memory arena: publish buffers once, attach zero-copy.

A :class:`SharedArena` lays one ``multiprocessing.shared_memory``
segment out as::

    [8-byte little-endian header length]
    [pickled header: (meta object, directory)]
    [16-byte-aligned typed buffers, one per directory entry]

The *directory* maps buffer names to ``(typecode, offset, count)``
triples (offsets relative to the aligned data region), so an attaching
process reads the header once and then casts ``memoryview`` windows —
no per-buffer pickling, no copies. The *meta* object is arbitrary
picklable state (decode tables, tag/path vocabularies) serialized
exactly once by the publisher; attachers unpickle it from the segment
rather than receiving it per-process.

Lifecycle: the publisher owns the segment and must call
:meth:`close` + :meth:`unlink` when the job finishes; attachers call
:meth:`close` only. Attaching skips the ``resource_tracker``
registration entirely (Python 3.12 and earlier auto-register
attachments, which would otherwise unlink the publisher's segment when
the worker exits and spam leak warnings). Segment names carry the
``repro-buf`` prefix so the leak check in the CI smoke can assert
``/dev/shm`` is clean after a run.
"""

from __future__ import annotations

import glob
import os
import pickle
import secrets
import struct
import threading
from array import array
from collections.abc import Mapping
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Any

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


class SharedArena:
    """One published (or attached) shared-memory buffer pool."""

    __slots__ = ("shm", "name", "owner", "_meta", "_directory", "_views",
                 "_data_start")

    def __init__(self, shm: shared_memory.SharedMemory, meta: Any,
                 directory: dict, *, owner: bool, data_start: int = 0):
        self.shm = shm
        self.name = shm.name
        self.owner = owner
        self._meta = meta
        self._directory = directory
        self._views: dict[str, memoryview] = {}
        self._data_start = data_start

    # -- construction ------------------------------------------------------

    @classmethod
    def publish(cls, buffers: "Mapping[str, array]", meta: Any = None,
                ) -> "SharedArena":
        """Create a segment holding *buffers* and the pickled *meta*.

        Each buffer must be an ``array.array`` (or expose ``typecode``
        and the buffer protocol). Returns the owning arena; the caller
        must eventually :meth:`close` and :meth:`unlink` it.
        """
        directory: dict[str, tuple[str, int, int]] = {}
        offset = 0
        for key, buf in buffers.items():
            offset = _aligned(offset)
            directory[key] = (buf.typecode, offset, len(buf))
            offset += len(buf) * buf.itemsize
        header = pickle.dumps((meta, directory),
                              protocol=pickle.HIGHEST_PROTOCOL)
        data_start = _aligned(_LEN.size + len(header))
        total = max(1, data_start + offset)
        name = (f"{SEGMENT_PREFIX}-{os.getpid()}-"
                f"{secrets.token_hex(4)}")
        shm = shared_memory.SharedMemory(create=True, size=total,
                                         name=name)
        shm.buf[:_LEN.size] = _LEN.pack(len(header))
        shm.buf[_LEN.size:_LEN.size + len(header)] = header
        for key, buf in buffers.items():
            _tc, rel, count = directory[key]
            if count:
                lo = data_start + rel
                nbytes = count * buf.itemsize
                shm.buf[lo:lo + nbytes] = memoryview(buf).cast("B")
        return cls(shm, meta, directory, owner=True,
                   data_start=data_start)

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
                raise TransportError(
                    f"shared-memory segment {name!r} has vanished or "
                    f"was never published (shm transport)") from exc
        header_len = _LEN.unpack_from(shm.buf, 0)[0]
        meta, directory = pickle.loads(
            bytes(shm.buf[_LEN.size:_LEN.size + header_len]))
        return cls(shm, meta, directory, owner=False,
                   data_start=_aligned(_LEN.size + header_len))

    # -- access ------------------------------------------------------------

    @property
    def meta(self) -> Any:
        """The meta object pickled into the segment (once, by the owner)."""
        return self._meta

    def keys(self) -> list[str]:
        """The published buffer names."""
        return list(self._directory)

    def buffer(self, key: str) -> memoryview:
        """A zero-copy typed ``memoryview`` of one published buffer."""
        view = self._views.get(key)
        if view is None:
            typecode, rel, count = self._directory[key]
            lo = self._data_start + rel
            itemsize = array(typecode).itemsize
            view = self.shm.buf[lo:lo + count * itemsize].cast(typecode)
            self._views[key] = view
        return view

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release every exported view and the process-local mapping."""
        for view in self._views.values():
            view.release()
        self._views.clear()
        try:
            self.shm.close()
        except BufferError:
            # Straggler views (e.g. posting slices or frozen-trie nodes
            # still referenced by the drained job) keep the mapping
            # exported; the OS reclaims it at process exit. Disarm the
            # destructor so interpreter shutdown stays quiet instead of
            # printing "cannot close exported pointers exist".
            self.shm.close = lambda: None  # type: ignore[method-assign]

    def unlink(self) -> None:
        """Destroy the segment (owner only; attachments just close)."""
        if self.owner:
            self.shm.unlink()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
        if self.owner:
            self.unlink()
