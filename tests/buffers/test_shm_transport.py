"""Shared-memory arenas, zero-copy attachment and transport routing.

Covers the ``shm`` transport stack bottom-up: a
:class:`~repro.buffers.shm.SharedArena` attacher never unlinks (the
layout round trip over both backings is in ``test_mmapfile.py``),
document- and instance-level publish/attach round trips, the
executor's transport routing (including every
:class:`~repro.errors.TransportError` case and ``naive`` on ``shm``),
the structural zero-pickling guarantee, a 2-worker **spawn** pool smoke
(twig and join), and the ``/dev/shm`` leak check after every pool run.
"""

import pickle

import pytest

from repro.buffers.layout import as_list, pack
from repro.buffers.shm import SharedArena
from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.engine.encoded import EncodedInstance
from repro.engine.interface import get_algorithm
from repro.errors import EngineError, TransportError
from repro.instrumentation import JoinStats
from repro.parallel import executor as executor_module
from repro.parallel.executor import (
    ParallelExecutor,
    available_transports,
    default_transport,
)
from repro.parallel.shm import (
    attach_instance,
    document_buffers,
    publish_instance,
)
from repro.relational.relation import Relation
from repro.xml.arenaview import attach_arena_document
from repro.xml.columnar import ColumnarDocument, columnar
from repro.xml.interface import get_twig_algorithm
from repro.xml.model import XMLDocument, element
from repro.xml.twig_parser import parse_twig


def library_document():
    tree = element(
        "lib",
        element("shelf",
                element("book", element("title", text="a")),
                element("book", element("title", text="b"))),
        element("shelf",
                element("book", element("title", text="c")),
                element("book", element("title", text="d"))),
    )
    return XMLDocument(tree)


def publish_view(view):
    return SharedArena.publish(*document_buffers(view))


def attach_view(name):
    arena = SharedArena.attach(name)
    return (arena, *attach_arena_document(arena))


def triangle_instance(n=50, algorithm="generic_join"):
    import random

    rng = random.Random(13)
    edges = sorted({(rng.randrange(n), rng.randrange(n))
                    for _ in range(4 * n)})
    relations = [Relation("R", ("a", "b"), edges),
                 Relation("S", ("b", "c"), edges),
                 Relation("T", ("a", "c"), edges)]
    if algorithm == "xjoin":
        query = MultiModelQuery(relations, name="Q")
        return EncodedInstance.from_query(query, ("a", "b", "c"))
    return EncodedInstance.from_relations(relations, ("a", "b", "c"))


class TestSharedArena:
    def test_attacher_never_unlinks(self, leaks):
        arena = SharedArena.publish({"k": pack([1, 2, 3])}, None)
        attached = SharedArena.attach(arena.name)
        attached.close()
        attached.unlink()  # non-owner: must be a no-op
        again = SharedArena.attach(arena.name)
        assert as_list(again.buffer("k")) == [1, 2, 3]
        again.close()
        arena.close()
        arena.unlink()
        assert not leaks.segments()


class TestDocumentRoundTrip:
    def test_attached_view_mirrors_columns_and_postings(self, leaks):
        document = library_document()
        base = columnar(document)
        arena = publish_view(base)
        try:
            attached_arena, handle, view = attach_view(arena.name)
            assert view.size == base.size
            for column in ("starts", "ends", "levels", "parents",
                           "tag_ids", "path_ids"):
                assert as_list(getattr(view, column)) == \
                    as_list(getattr(base, column)), column
            assert view.values == base.values
            assert view.tags == base.tags
            for tid in range(len(base.tags)):
                assert as_list(view.tag_nids[tid]) == \
                    as_list(base.tag_nids[tid])
                assert as_list(view.tag_starts[tid]) == \
                    as_list(base.tag_starts[tid])
            for pid in range(len(base.paths)):
                assert as_list(view.nids_by_path[pid]) == \
                    as_list(base.nids_by_path[pid])
            node = view.nodes[3]
            assert node.start == base.starts[3]
            assert node.tag == base.tags[base.tag_ids[3]]
            attached_arena.close()
        finally:
            arena.close()
            arena.unlink()
        assert not leaks.segments()

    @pytest.mark.parametrize("algorithm",
                             ["twigstack", "tjfast", "structural", "naive"])
    def test_matchers_run_on_attached_handle(self, algorithm):
        document = library_document()
        twig = parse_twig("b=book(/t=title)")
        serial = get_twig_algorithm(algorithm).run(document, twig)
        arena = publish_view(columnar(document))
        try:
            attached_arena, handle, _view = attach_view(arena.name)
            attached = get_twig_algorithm(algorithm).run(handle, twig)
            assert sorted(attached.rows) == sorted(serial.rows)
            attached_arena.close()
        finally:
            arena.close()
            arena.unlink()


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("algorithm",
                             ["generic_join", "leapfrog", "xjoin"])
    def test_kernels_run_on_attached_instance(self, leaks, algorithm):
        instance = triangle_instance(50, algorithm)
        serial = get_algorithm(algorithm).run(instance)
        arena = publish_instance(instance, algorithm)
        try:
            attached_arena, attached = attach_instance(arena.name)
            result = get_algorithm(algorithm).run(attached)
            assert sorted(result.rows) == sorted(serial.rows)
            attached_arena.close()
        finally:
            arena.close()
            arena.unlink()
        assert not leaks.segments()


class TestZeroPickling:
    def test_columnar_document_refuses_to_pickle(self):
        view = columnar(library_document())
        assert isinstance(view, ColumnarDocument)
        with pytest.raises(TypeError, match="never pickled"):
            pickle.dumps(view)


def twig_bearing_instance():
    document = library_document()
    twig = parse_twig("b=book(/t=title)")
    relation = Relation("R", ("x", "t"),
                        [(x, t) for x in range(40)
                         for t in ("a", "b", "c", "d")])
    query = MultiModelQuery([relation], [TwigBinding(twig, document)],
                            name="Q")
    return EncodedInstance.from_query(query, ("x", "t", "b"))


class TestTransportRouting:
    def test_transport_error_is_engine_error(self):
        assert issubclass(TransportError, EngineError)

    def test_shm_always_listed(self):
        transports = available_transports()
        assert "shm" in transports and "serial" in transports
        assert default_transport(1) == "serial"
        assert default_transport(4) in ("fork", "shm")

    @pytest.mark.parametrize("transport", ["shm", "mmap"])
    def test_twig_bearing_join_raises_transport_error(self, transport):
        instance = twig_bearing_instance()
        executor = ParallelExecutor(2, transport=transport)
        with pytest.raises(TransportError):
            executor.run_join(instance, "xjoin")

    def test_naive_twig_without_fork_runs_on_shm(self, leaks, monkeypatch):
        # The shm attachment is an ArenaDocument: its node stubs serve
        # the navigational oracle with no fork to fall back on.
        monkeypatch.setattr(executor_module, "fork_available",
                            lambda: False)
        document = library_document()
        twig = parse_twig("b=book(/t=title)")
        serial = get_twig_algorithm("naive").run(document, twig)
        stats = JoinStats()
        parallel = ParallelExecutor(2, transport="shm").run_twig(
            document, twig, "naive", stats=stats)
        assert sorted(parallel.rows) == sorted(serial.rows)
        assert any(record.label.startswith("roots [")
                   for record in stats.stages)
        assert not leaks.segments()

    def test_pickle_transport_is_refused_at_construction(self):
        # The arena transports ship every spawned job; there is no
        # ``pickle`` transport to configure.
        with pytest.raises(TransportError, match="unknown transport"):
            ParallelExecutor(2, transport="pickle")


class TestSpawnPoolSmoke:
    def test_two_worker_shm_twig_parity(self, leaks):
        document = library_document()
        twig = parse_twig("b=book(/t=title)")
        serial = get_twig_algorithm("twigstack").run(document, twig)
        executor = ParallelExecutor(2, transport="shm")
        stats = JoinStats()
        parallel = executor.run_twig(document, twig, "twigstack",
                                     stats=stats)
        assert sorted(parallel.rows) == sorted(serial.rows)
        # A race against the pool only if the root posting was sliced.
        assert any(record.label.startswith("roots [")
                   for record in stats.stages)
        assert not leaks.segments()

    def test_two_worker_shm_join_parity(self, leaks):
        instance = triangle_instance(60)
        serial = get_algorithm("leapfrog").run(instance)
        executor = ParallelExecutor(2, transport="shm")
        parallel = executor.run_join(instance, "leapfrog")
        assert sorted(parallel.rows) == sorted(serial.rows)
        assert not leaks.segments()
