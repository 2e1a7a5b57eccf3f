"""Worker-process entry points for the morsel pool.

A worker executes **morsels** — slice descriptors produced by
:mod:`repro.parallel.partition`, just a few ints each — against the
job state installed in :data:`_SHARED` when the worker starts. How the
job state travels is the pool's *transport*:

* ``fork`` — children inherit the encoded instance / document
  copy-on-write through the forked address space; nothing heavy is
  ever serialized;
* ``shm`` / ``mmap`` — the parent publishes the job's typed buffers
  into one arena (:mod:`repro.parallel.shm`; a shared-memory segment
  or a file) and the ``Process`` args carry only an ``("arena",
  backing, address, "twig" | "join", ...)`` descriptor.
  :func:`set_shared` materializes the descriptor on arrival: it
  attaches the arena zero-copy and rewrites the job into the standard
  ``("twig", ...)`` / ``("join", ...)`` shape, so the morsel runners
  below never distinguish transports. Zero instance or document
  pickling per worker, under a spawn start method;
* ``serial`` — the same runners in the caller's process.

Workers return ``(index, counters, rows)`` per morsel — plain value
rows, never node objects or tries, so result pickles stay proportional
to the answer. Failures travel back as ``(index, None, traceback)`` and
re-raise in the parent.
"""

from __future__ import annotations

import traceback
from typing import Any

from repro.instrumentation import JoinStats

#: The fork-transport job, set by the parent immediately before the pool
#: forks and cleared after the run. Tuple layout is job-kind specific;
#: see the ``_run_*`` functions.
_SHARED: tuple | None = None

#: id(materialized job) -> the arena the job attached, so
#: :func:`release_shared` closes exactly the attachment belonging to
#: one job (inline runs nest jobs; a global close would release an
#: outer job's views).
_JOB_ARENAS: "dict[int, Any]" = {}


def _materialize(job: tuple) -> tuple:
    """Resolve an arena descriptor into standard job state.

    ``job`` is ``("arena", backing, address, kind, *rest)``: *backing*
    is the arena class and *address* its segment name or file path.
    Attaches the arena zero-copy — a document as an
    :class:`~repro.xml.arenaview.ArenaDocument`, an instance as frozen
    trie shells — and rewrites the descriptor into the plain job tuple
    the morsel runners dispatch on. The attachment is recorded for
    :func:`release_shared`.
    """
    from repro.parallel.shm import instance_from_arena
    from repro.xml.arenaview import attach_arena_document

    _arena, backing, address, kind, *rest = job
    arena = backing.attach(address)
    if kind == "twig":
        twig, algorithm = rest
        document, view = attach_arena_document(arena)
        # Predicate filtering scans the full posting: once per job (per
        # attached worker), not once per morsel.
        materialized = ("twig", document, twig, algorithm, view,
                        {q.name: view.stream(q) for q in twig.nodes()})
    else:
        materialized = ("join", instance_from_arena(arena), *rest)
    _JOB_ARENAS[id(materialized)] = arena
    return materialized


def release_shared(job: tuple | None) -> None:
    """Close the arena attachment of one materialized job."""
    arena = _JOB_ARENAS.pop(id(job), None)
    if arena is not None:
        arena.close()


def set_shared(job: tuple | None) -> None:
    """Install (or clear) the current job state.

    Arena descriptors are materialized here — the one place every
    transport funnels through — so the runners only ever see plain job
    tuples.
    """
    global _SHARED
    if job is not None and job[0] == "arena":
        job = _materialize(job)
    _SHARED = job


def _counters(stats: JoinStats) -> dict:
    """The picklable counter summary a morsel reports back."""
    return stats.summary()


def run_join_morsel(task: tuple) -> tuple[dict, list]:
    """Evaluate one code-range slice ``(lo, hi)`` of an encoded join.

    The instance comes from :data:`_SHARED` (``("join", instance,
    algorithm_name)``) — inherited copy-on-write under fork, attached
    from the arena under shm / mmap. Returns the slice's *decoded*
    result rows.
    """
    from repro.engine.interface import get_algorithm
    from repro.parallel.slicing import sliced_instance

    stats = JoinStats()
    assert _SHARED is not None and _SHARED[0] == "join"
    _kind, instance, algorithm = _SHARED
    view = sliced_instance(instance, task[0], task[1])
    result = get_algorithm(algorithm).run(view, stats=stats)
    return _counters(stats), list(result.rows)


def run_twig_morsel(task: tuple) -> tuple[dict, list]:
    """Evaluate one root-posting slice of a twig match.

    ``task`` is ``(lo, hi, region_hi)``; the job comes from
    :data:`_SHARED` as ``("twig", document, twig, algorithm_name,
    base_view, base_streams)``. Returns the slice's value rows: the
    projection of every embedding whose root match starts in ``[lo, hi)``.
    """
    from bisect import bisect_left
    from repro.xml.columnar import columnar_as
    from repro.xml.interface import get_twig_algorithm
    from repro.xml.navigation import match_embeddings
    from repro.parallel.slicing import SlicedColumnarView

    assert _SHARED is not None and _SHARED[0] == "twig"
    _kind, document, twig, algorithm, base, streams = _SHARED
    lo, hi, region_hi = task
    stats = JoinStats()
    attrs = twig.attributes
    root = twig.nodes()[0]

    if algorithm == "naive":
        # The navigational oracle walks node objects, not postings: pin
        # the twig root to each candidate in the slice instead.
        embeddings = []
        posting = streams[root.name]
        i = bisect_left(posting.starts, lo)
        j = bisect_left(posting.starts, hi)
        for position in range(i, j):
            node = base.nodes[posting.nids[position]]
            embeddings.extend(
                match_embeddings(document, twig, root=node, stats=stats))
        rows = {tuple(emb[a].value for a in attrs) for emb in embeddings}
        return _counters(stats), list(rows)

    view = SlicedColumnarView(base, twig, lo, hi, region_hi,
                              base_streams=streams)
    # Algorithms resolve the document's view through ``columnar``: point
    # it at the slice view for this morsel, then back at the base view
    # with all it has derived (the serial transport runs in the caller).
    with columnar_as(document, view):
        embeddings = get_twig_algorithm(algorithm).embeddings(
            document, twig, stats=stats)
    root_name = root.name
    rows = {tuple(emb[a].value for a in attrs) for emb in embeddings
            if lo <= emb[root_name].start < hi}
    return _counters(stats), list(rows)


#: Morsel kind -> executor function (also the worker loop's dispatch).
MORSEL_RUNNERS = {
    "join": run_join_morsel,
    "twig": run_twig_morsel,
}


def worker_loop(kind: str, tasks: Any, results: Any,
                shared: tuple | None = None) -> None:
    """The pool worker main: pull morsels until the ``None`` sentinel.

    ``shared`` is the job state, passed through ``Process`` args: under
    a ``fork`` start method it arrives by copy-on-write inheritance
    (nothing is serialized); under ``spawn`` the arena descriptor is
    pickled exactly once per worker. Each task on the queue is
    ``(index, payload)``; results are pushed as ``(index, counters,
    rows)`` or ``(index, None, traceback_text)`` on failure.
    """
    set_shared(shared)
    runner = MORSEL_RUNNERS[kind]
    try:
        while True:
            item = tasks.get()
            if item is None:
                break
            index, payload = item
            try:
                counters, rows = runner(payload)
                results.put((index, counters, rows))
            except BaseException:  # noqa: BLE001 - re-raised in the parent
                results.put((index, None, traceback.format_exc()))
    finally:
        release_shared(_SHARED)
        set_shared(None)
