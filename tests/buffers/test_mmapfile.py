"""File-backed mmap arenas: layout, lifecycle, and error routing.

The arena-layer guarantees of the larger-than-RAM tentpole: values of
every typecode width round-trip bit-exactly through a
:class:`~repro.buffers.mmapfile.FileArena`, the streamed
:class:`~repro.buffers.mmapfile.ArenaWriter` (bounded tails, spill
files, ``set_at`` backpatching, CSR concatenation) produces the same
bytes as the in-memory publish, broken attachments surface as
:class:`~repro.errors.TransportError` (never a raw ``OSError``), and
nothing with the ``repro-arena-`` prefix survives a clean run. The
layout is one implementation for both backings, so the round trip and
the closed-arena error run over :class:`~repro.buffers.shm.SharedArena`
too, beside its ``attach`` error routing and the thread-safe
resource-tracker shim.
"""

from __future__ import annotations

import os
import re
import threading
from array import array
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.buffers.mmapfile import (
    ArenaWriter,
    FileArena,
    arena_temp_path,
)
from repro.buffers.shm import SharedArena
from repro.errors import TransportError

#: (typecode, values) pairs hitting both ends of each storage width.
BOUNDARY_BUFFERS = [
    ("b", [-128, -1, 0, 1, 127]),
    ("B", [0, 1, 254, 255]),
    ("h", [-32768, -1, 0, 32767]),
    ("H", [0, 65535]),
    ("i", [-2**31, -1, 0, 2**31 - 1]),
    ("I", [0, 2**32 - 1]),
    ("q", [-2**63, -1, 0, 2**63 - 1]),
    ("Q", [0, 2**64 - 1]),
    ("d", [0.0, -1.5, 2.25e300]),
]


BACKINGS = [SharedArena, FileArena]


def assert_no_leaks(leaks):
    assert not leaks.segments()
    assert not leaks.arena_files()


class TestTypecodeBoundaries:
    @pytest.mark.parametrize("backing", BACKINGS,
                             ids=lambda backing: backing.__name__)
    def test_all_widths_round_trip(self, leaks, backing):
        """One layout: every width, and an empty buffer, read back
        bit-exactly by a second attachment of either backing."""
        buffers = {f"col_{tc}": array(tc, values)
                   for tc, values in BOUNDARY_BUFFERS}
        buffers["empty"] = array("I")
        meta = {"tables": {"x": [1, 2]}, "note": "hello"}
        with backing.publish(buffers, meta) as arena:
            attached = backing.attach(arena.address)
            try:
                assert attached.meta == meta
                assert sorted(attached.keys()) == sorted(buffers)
                for key, buf in buffers.items():
                    view = attached.buffer(key)
                    assert view.format == buf.typecode
                    assert list(view) == list(buf)
            finally:
                attached.close()
        assert_no_leaks(leaks)

    def test_streamed_columns_match_publish(self, leaks):
        """ArenaWriter spill path == in-memory publish, byte for byte."""
        values = list(range(-50, 50))
        direct = FileArena.publish({"c": array("i", values)})
        writer = ArenaWriter(chunk_items=7)  # force many partial spills
        column = writer.column("c", "i")
        column.extend(values)
        streamed = writer.finish(None)
        try:
            assert list(streamed.buffer("c")) == list(direct.buffer("c"))
        finally:
            for arena in (direct, streamed):
                arena.close()
                arena.unlink()
        assert not leaks.arena_files()


class TestColumnWriter:
    def test_partial_final_tail(self, leaks):
        """A column whose length is not a multiple of the chunk."""
        writer = ArenaWriter(chunk_items=8)
        column = writer.column("c", "H")
        for value in range(21):  # 2 full spills + a 5-item tail
            column.tail.append(value)
            column.spill()
        assert len(column) == 21
        with writer.finish(None) as arena:
            assert list(arena.buffer("c")) == list(range(21))
        assert not leaks.arena_files()

    def test_set_at_backpatches_tail_and_flushed(self):
        writer = ArenaWriter(chunk_items=4)
        column = writer.column("c", "I")
        for value in range(10):
            column.tail.append(value)
            column.spill()
        column.set_at(1, 101)   # flushed region -> pwrite
        column.set_at(9, 109)   # in-memory tail -> mutation
        with writer.finish(None) as arena:
            got = list(arena.buffer("c"))
        assert got[1] == 101 and got[9] == 109
        assert got[0] == 0 and got[8] == 8

    def test_snapshot_reads_everything_appended(self, leaks):
        writer = ArenaWriter(chunk_items=4)
        column = writer.column("c", "I", register=False)
        column.extend(range(11))
        with column.snapshot() as view:
            assert list(view) == list(range(11))
        writer.abort()
        assert not leaks.arena_files()

    def test_concat_streams_buckets_in_order(self):
        writer = ArenaWriter(chunk_items=4)
        buckets = []
        for base in (0, 100, 200):
            bucket = writer.column(f"bucket{base}", "I", register=False)
            bucket.extend(range(base, base + 6))
            buckets.append(bucket)
        writer.concat("csr", "I", buckets)
        with writer.finish(None) as arena:
            expected = [*range(0, 6), *range(100, 106), *range(200, 206)]
            assert list(arena.buffer("csr")) == expected

    def test_duplicate_buffer_name_rejected(self, leaks):
        writer = ArenaWriter()
        writer.column("c", "I")
        with pytest.raises(ValueError):
            writer.add_buffer("c", array("I", [1]))
        writer.abort()
        assert not leaks.arena_files()


class TestErrorRouting:
    def test_vanished_file_raises_transport_error(self, leaks):
        missing = arena_temp_path()
        with pytest.raises(TransportError, match="vanished"):
            FileArena.attach(missing)
        assert not leaks.arena_files()

    def test_non_arena_file_raises_transport_error(self, tmp_path):
        bogus = tmp_path / "not-an-arena.bin"
        bogus.write_bytes(b"\xff" * 64)
        with pytest.raises(TransportError, match="not a readable arena"):
            FileArena.attach(str(bogus))

    def test_truncated_file_raises_transport_error(self, leaks):
        """A file cut short of its directory must not attach: the last
        buffer would read back as a prefix of itself."""
        arena = FileArena.publish({"x": array("I", range(1000)),
                                   "y": array("I", range(1000))})
        path = arena.path
        arena.close()
        try:
            os.truncate(path, os.path.getsize(path) - 2000)
            with pytest.raises(TransportError,
                               match=f"{re.escape(repr(path))}.*truncated"):
                FileArena.attach(path)
        finally:
            arena.unlink()
        assert not leaks.arena_files()

    @pytest.mark.parametrize("backing", BACKINGS,
                             ids=lambda backing: backing.__name__)
    def test_buffer_after_close_raises_transport_error(self, leaks, backing):
        arena = backing.publish({"c": array("I", [1, 2, 3])})
        arena.close()
        with pytest.raises(TransportError, match="closed"):
            arena.buffer("c")
        reattached = backing.attach(arena.address)
        try:
            assert list(reattached.buffer("c")) == [1, 2, 3]
        finally:
            reattached.close()
            arena.unlink()
        assert_no_leaks(leaks)

    def test_shm_attach_unknown_name_raises_transport_error(self):
        with pytest.raises(TransportError, match="vanished"):
            SharedArena.attach("repro-buf-never-published")


class TestConcurrentShmAttach:
    def test_parallel_attaches_do_not_race_the_tracker(self):
        """Regression: the old attach shim swapped the *global*
        ``resource_tracker.register`` in and out per attach, so
        concurrent attaches could restore a stale reference (leaving
        the skip permanently installed) or unregister a publisher's
        create. The permanent thread-local shim must survive a
        thread-pool hammering attaches while publishes proceed."""
        from multiprocessing import resource_tracker

        arena = SharedArena.publish({"c": array("I", list(range(64)))},
                                    {"kind": "test"})
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def hammer():
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    attached = SharedArena.attach(arena.name)
                    assert list(attached.buffer("c")) == list(range(64))
                    attached.close()
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        def publish_churn():
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    other = SharedArena.publish({"x": array("B", [1])})
                    other.close()
                    other.unlink()
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(hammer) for _ in range(6)]
                futures += [pool.submit(publish_churn) for _ in range(2)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            arena.close()
            arena.unlink()
        assert not errors, errors
        # The shim stayed installed (stable binding across attaches)
        # and a vanished-name attach still routes as TransportError —
        # the whole machinery survived the hammering intact.
        register = resource_tracker.register
        with pytest.raises(TransportError):
            SharedArena.attach(arena.name)  # unlinked above
        assert resource_tracker.register is register
