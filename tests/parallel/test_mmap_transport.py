"""The file-backed ``mmap`` transport: by-path attachment end to end.

The disk-backed sibling of the shm transport tests: document and
instance round trips through the publication shapes of
:mod:`repro.parallel.shm` into a file arena, the executor's ``mmap``
routing (including the navigational ``naive`` oracle), a 2-worker
**spawn** pool smoke for twig and join jobs,
zero-copy by-path republication of a streamed arena, and a clean temp
directory after every run.
"""

from __future__ import annotations

import pytest

from repro.buffers.mmapfile import FileArena
from repro.core.multimodel import MultiModelQuery
from repro.engine.encoded import EncodedInstance
from repro.engine.interface import get_algorithm
from repro.errors import TransportError
from repro.parallel.executor import ParallelExecutor, available_transports
from repro.parallel.shm import (
    document_buffers,
    instance_buffers,
    instance_from_arena,
)
from repro.relational.relation import Relation
from repro.xml.arenaview import ArenaDocument, attach_arena_document
from repro.xml.columnar import columnar
from repro.xml.interface import get_twig_algorithm
from repro.xml.parser import parse_document
from repro.xml.streaming import stream_document
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_stream_chunks


def stream_corpus(factor=0.5, seed=11):
    text = "".join(xmark_stream_chunks(factor, seed=seed))
    return text, parse_document(text)


def triangle_instance(n=40):
    import random

    rng = random.Random(3)
    edges = sorted({(rng.randrange(n), rng.randrange(n))
                    for _ in range(4 * n)})
    relations = [Relation("R", ("a", "b"), edges),
                 Relation("S", ("b", "c"), edges),
                 Relation("T", ("a", "c"), edges)]
    return EncodedInstance.from_relations(relations, ("a", "b", "c"))


ITEM_TWIG = "i=item(/n=name, //c=incategory)"


class TestRoundTrip:
    def test_document_by_path(self, leaks):
        _text, document = stream_corpus()
        twig = parse_twig(ITEM_TWIG)
        serial = get_twig_algorithm("twigstack").run(document, twig)
        arena = FileArena.publish(*document_buffers(columnar(document)))
        try:
            attached_arena = FileArena.attach(arena.path)
            handle, view = attach_arena_document(attached_arena)
            assert isinstance(handle, ArenaDocument)
            assert view.size == columnar(document).size
            attached = get_twig_algorithm("twigstack").run(handle, twig)
            assert sorted(attached.rows) == sorted(serial.rows)
            attached_arena.close()
        finally:
            arena.close()
            arena.unlink()
        assert not leaks.arena_files()

    def test_instance_by_path(self, leaks):
        instance = triangle_instance()
        serial = get_algorithm("generic_join").run(instance)
        arena = FileArena.publish(*instance_buffers(instance,
                                                    "generic_join"))
        try:
            attached_arena = FileArena.attach(arena.path)
            attached = instance_from_arena(attached_arena)
            result = get_algorithm("generic_join").run(attached)
            assert sorted(result.rows) == sorted(serial.rows)
            attached_arena.close()
        finally:
            arena.close()
            arena.unlink()
        assert not leaks.arena_files()

    def test_attach_vanished_path_raises_transport_error(self):
        with pytest.raises(TransportError, match="vanished"):
            FileArena.attach("/tmp/repro-arena-definitely-missing.arena")


class TestExecutorRouting:
    def test_mmap_always_listed(self):
        assert "mmap" in available_transports()

    def test_twig_bearing_join_raises_transport_error(self):
        from repro.core.multimodel import TwigBinding
        from repro.xml.model import XMLDocument, element

        document = XMLDocument(
            element("lib", element("book", element("title", text="a"))))
        twig = parse_twig("b=book(/t=title)")
        relation = Relation("R", ("x", "t"),
                            [(x, t) for x in range(40)
                             for t in ("a", "b", "c", "d")])
        query = MultiModelQuery([relation], [TwigBinding(twig, document)],
                                name="Q")
        instance = EncodedInstance.from_query(query, ("x", "t", "b"))
        executor = ParallelExecutor(2, transport="mmap")
        with pytest.raises(TransportError):
            executor.run_join(instance, "xjoin")


class TestSpawnPoolSmoke:
    @pytest.mark.parametrize("algorithm", ["twigstack", "naive"])
    def test_two_worker_mmap_twig_parity(self, leaks, algorithm):
        """The pool smoke — and proof the navigational ``naive`` oracle
        runs attached (the view's node stubs carry it)."""
        _text, document = stream_corpus()
        twig = parse_twig(ITEM_TWIG)
        serial = get_twig_algorithm("twigstack").run(document, twig)
        executor = ParallelExecutor(2, transport="mmap")
        parallel = executor.run_twig(document, twig, algorithm)
        assert sorted(parallel.rows) == sorted(serial.rows)
        assert not leaks.arena_files()

    def test_two_worker_mmap_join_parity(self, leaks):
        instance = triangle_instance()
        serial = get_algorithm("generic_join").run(instance)
        executor = ParallelExecutor(2, transport="mmap")
        parallel = executor.run_join(instance, "generic_join")
        assert sorted(parallel.rows) == sorted(serial.rows)
        assert not leaks.arena_files()


class TestStreamedArenaByPath:
    def test_streamed_corpus_republishes_zero_copy(self, leaks):
        """A streamed-build arena served through the pool by its own
        path: the executor must not copy, not unlink the caller-owned
        file, and the rows must match the in-memory build."""
        text, document = stream_corpus()
        twig = parse_twig(ITEM_TWIG)
        serial = get_twig_algorithm("twigstack").run(document, twig)
        arena = stream_document([text])
        try:
            handle, _view = attach_arena_document(arena)
            executor = ParallelExecutor(2, transport="mmap")
            parallel = executor.run_twig(handle, twig, "twigstack")
            assert sorted(parallel.rows) == sorted(serial.rows)
            # The caller-owned arena survived the pool run.
            reopened = FileArena.attach(arena.path)
            assert reopened.meta["size"] == arena.meta["size"]
            reopened.close()
        finally:
            arena.close()
            arena.unlink()
        assert not leaks.arena_files()
