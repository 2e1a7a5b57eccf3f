"""The partition-parallel executor: every algorithm, across workers.

:class:`ParallelExecutor` runs any registered
:class:`~repro.engine.interface.JoinAlgorithm` over an
:class:`~repro.engine.encoded.EncodedInstance` and any registered
:class:`~repro.xml.interface.TwigAlgorithm` over a document, split into
the slice kinds of :mod:`repro.parallel.partition` and scheduled by the
work-stealing queue of :mod:`repro.parallel.morsels`:

* encoded joins (``generic_join``, ``leapfrog``, ``xjoin``) — top-level
  code ranges; slice results concatenate, ordered by slice index (=
  ascending code range), into exactly the serial row set;
* twig matchers — root-posting ranges, with each worker's answer
  filtered to the embeddings rooted in its own slice.

``workers <= 1`` everywhere degrades to the serial algorithm call, so
callers can thread a ``workers`` knob through unconditionally.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING

from repro.buffers.mmapfile import FileArena
from repro.buffers.shm import SharedArena
from repro.errors import TransportError
from repro.instrumentation import JoinStats, ensure_stats
from repro.parallel.morsels import fork_available, run_morsels
from repro.parallel.partition import (
    choose_morsel_count,
    code_slices,
    posting_slices,
    top_level_weights,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema

if TYPE_CHECKING:
    from repro.core.multimodel import MultiModelQuery
    from repro.engine.encoded import EncodedInstance
    from repro.xml.model import XMLDocument
    from repro.xml.twig import TwigQuery


#: The arena each publishing transport lays a job into.
_ARENAS = {"shm": SharedArena, "mmap": FileArena}


def available_transports() -> list[str]:
    """Transports usable on this platform, preferred first."""
    out = ["fork"] if fork_available() else []
    return out + ["shm", "mmap", "serial"]


def default_transport(workers: int) -> str:
    """The transport a fresh executor picks for *workers* processes."""
    if workers <= 1:
        return "serial"
    return "fork" if fork_available() else "shm"


class ParallelExecutor:
    """A reusable configuration for partition-parallel runs.

    ``workers`` is the pool size (0/1 = serial) and ``transport`` one of
    :func:`available_transports` (default: the platform's best, see
    :func:`default_transport`); any other name raises
    :class:`~repro.errors.TransportError` here, before any work.
    """

    def __init__(self, workers: int, *, transport: str | None = None):
        self.workers = max(0, int(workers))
        self.transport = transport or default_transport(self.workers)
        if self.transport not in available_transports():
            raise TransportError(
                f"unknown transport {self.transport!r} on this platform; "
                f"choose from {available_transports()!r}")

    # -- encoded joins -----------------------------------------------------

    def run_join(self, instance: "EncodedInstance",
                 algorithm: str = "generic_join", *,
                 stats: JoinStats | None = None,
                 morsels: int | None = None) -> Relation:
        """Run a registered join algorithm over *instance* in parallel.

        Result equality with the serial ``get_algorithm(name).run`` is
        exact for every registered algorithm; with ``workers <= 1`` the
        serial call *is* what runs. A name the registry does not know is
        refused here, before any arena is published or worker started.
        """
        from repro.engine.interface import get_algorithm

        kernel = get_algorithm(algorithm)
        stats = ensure_stats(stats)
        # Degenerate runs (serial executor, planner said 1 partition)
        # short-circuit before any partitioning work — in particular
        # before the weight map, an O(rows) walk of every level-0 trie
        # not yet weighed (frozen tries keep theirs).
        if self.workers <= 1 or (morsels is not None and morsels <= 1):
            return kernel.run(instance, stats=stats)
        weights = top_level_weights(instance)
        count = morsels if morsels is not None else choose_morsel_count(
            self.workers, len(weights))
        if count <= 1 or len(weights) <= 1:
            return kernel.run(instance, stats=stats)
        transport = self.transport
        if transport in _ARENAS and instance.twigs:
            raise TransportError(
                f"the {transport!r} transport ships the encoded instance "
                "across processes and cannot carry twig-bearing instances "
                "(structure validators pin live documents); use the 'fork' "
                "transport (or workers=1)")
        slices = code_slices(instance, count, weights=weights)

        payloads = [(piece.lo, piece.hi) for piece in slices]
        arena = None
        if transport in _ARENAS:
            # The tries freeze into one published arena (a segment or a
            # file); workers attach zero-copy and only the descriptor
            # tuple is ever pickled.
            from repro.parallel.shm import instance_buffers

            arena = _ARENAS[transport].publish(
                *instance_buffers(instance, algorithm))
            shared = ("arena", type(arena), arena.address, "join",
                      algorithm)
        else:
            shared = ("join", instance, algorithm)

        stats.start_timer()
        with arena or nullcontext():  # the publisher closes + unlinks
            outcomes = run_morsels("join", payloads, workers=self.workers,
                                   shared=shared, transport=transport)
        rows: list[tuple] = []
        for piece, (counters, slice_rows) in zip(slices, outcomes):
            stats.absorb(counters,
                         stage_label=f"morsel [{piece.lo},{piece.hi})")
            rows.extend(slice_rows)
        stats.stop_timer()
        # xjoin already projects (and surrogate-erases) per slice; the
        # relational kernels emit rows over the full order.
        return Relation(instance.name, Schema(
            instance.attributes if algorithm == "xjoin" else instance.order),
            rows)

    # -- twig matching -----------------------------------------------------

    def run_twig(self, document: "XMLDocument", twig: "TwigQuery",
                 algorithm: str | None = None, *,
                 name: str | None = None,
                 stats: JoinStats | None = None) -> Relation:
        """Run a registered twig matcher over *document* in parallel.

        Partitioned by the root query node's posting ranges; each
        morsel's answer is the value projection of the embeddings rooted
        in its slice, so the union is exactly the serial ``run`` answer.
        Every matcher rides these slices; ``accel``, which works a chunk
        of root candidates at a time (:data:`repro.xml.accel.CHUNK`),
        makes the serial call for a root posting that fits one.
        """
        from repro.xml import accel
        from repro.xml.columnar import columnar
        from repro.xml.interface import get_twig_algorithm
        from repro.xml.twig import ValueSet

        stats = ensure_stats(stats)
        if algorithm is None:
            from repro.engine.planner import choose_twig_algorithm

            algorithm = choose_twig_algorithm(document, twig)
        matcher = get_twig_algorithm(algorithm)
        if self.workers <= 1:
            return matcher.run(document, twig, name=name, stats=stats)
        base = columnar(document)
        posting = base.stream(twig.nodes()[0])
        count = choose_morsel_count(self.workers, len(posting.nids))
        # ``accel`` works a chunk of root candidates at a time, so a
        # posting that fits one is nothing to hand a second worker (a
        # 200-person twig: 0.7 ms serial, 16 ms forked). Measured for
        # ``accel`` only: the other matchers slice as they always did.
        if count <= 1 or (algorithm == "accel"
                          and len(posting.nids) <= accel.CHUNK):
            return matcher.run(document, twig, name=name, stats=stats)
        slices = posting_slices(posting, count)
        # Documents are never *pickled* across the pool: twig morsels
        # ride fork (copy-on-write), an arena (shm: a segment; mmap: a
        # file, how larger-than-RAM streamed corpora parallelize) that
        # workers attach zero-copy as an ArenaDocument — whose node stubs
        # serve even the ``naive`` oracle — or the in-process loop.
        transport = self.transport
        payloads = [(piece.lo, piece.hi, piece.region_hi)
                    for piece in slices]
        arena = None
        if transport in _ARENAS:
            from repro.parallel.shm import document_buffers

            # Spawned workers receive the twig pickled, and a lambda does
            # not pickle: each value predicate runs once, here, and what
            # ships is the set of values it kept.
            twig = twig.with_predicates({
                q.name: ValueSet(filter(q.predicate, base.tag_values(q.tag)))
                for q in twig.nodes() if q.predicate is not None})
            # A corpus that already is an arena of this backing (a
            # streamed build or a prior attachment) re-publishes by
            # address, zero copying; the caller owns that arena —
            # nothing to unlink here.
            backing = _ARENAS[transport]
            source = getattr(document, "arena", None)
            if not isinstance(source, backing):
                source = arena = backing.publish(*document_buffers(base))
            shared: tuple = ("arena", backing, source.address, "twig",
                             twig, algorithm)
        else:
            shared = ("twig", document, twig, algorithm, base,
                      {q.name: base.stream(q) for q in twig.nodes()})

        stats.start_timer()
        with arena or nullcontext():  # the publisher closes + unlinks
            outcomes = run_morsels("twig", payloads, workers=self.workers,
                                   shared=shared, transport=transport)
        rows: list[tuple] = []
        for piece, (counters, slice_rows) in zip(slices, outcomes):
            stats.absorb(counters,
                         stage_label=f"roots [{piece.lo},{piece.hi})")
            rows.extend(slice_rows)
        stats.stop_timer()
        return Relation(name or twig.name, Schema(twig.attributes), rows)

    # -- whole queries -----------------------------------------------------

    def run_query(self, query: "MultiModelQuery", *,
                  order=None, algorithm: str | None = None,
                  stats: JoinStats | None = None) -> Relation:
        """Plan and evaluate *query* with partition-parallel execution.

        The planner chooses the partition axis (the resolved order's
        first attribute) and morsel count from cached statistics; the
        encoded instance is built once and shared with the pool.
        """
        from repro.engine.planner import plan_query, prepare

        stats = ensure_stats(stats)
        plan = plan_query(query, order=order, algorithm=algorithm,
                          workers=self.workers)
        with stats.phase("encode"):
            instance = prepare(query, plan).instance
        stats.count_inputs(instance)
        result = self.run_join(instance, plan.algorithm, stats=stats,
                               morsels=plan.partitions)
        if result.schema.attributes != query.attributes:
            result = result.project(query.attributes, name=query.name)
        return result
