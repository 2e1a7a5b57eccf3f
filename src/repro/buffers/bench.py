"""Shared scenarios for the buffer-kernel benchmark.

Both front-ends — ``python -m repro bench --suite buffers`` and
``benchmarks/bench_buffers.py`` — time the same code through this
module, so the CLI table, the pytest gate and CI can never drift apart
on what they measure.

Two scenarios:

* :func:`intersection_scenario` — the kernel gate. Triangle counting
  over the dense random digraph reduces to one sorted-set intersection
  per edge (``adj(a) ∩ adj(b)``); the batch path packs each adjacency
  list into a typed buffer once and calls
  :func:`~repro.buffers.kernels.intersect_many`, the foil leapfrogs
  :class:`~repro.relational.iterators.SortedListIterator` pairs through
  the classic per-element :func:`~repro.relational.leapfrog.
  leapfrog_intersect`. Same triangles out of both, and the batch side
  must win by :data:`SPEEDUP_TARGET` — the kernels are single-threaded,
  so the gate holds on any core count.
* :func:`spawn_twig_scenario` — the transport gate. Twig matching over
  an XMark document through a spawn-mode worker pool on the ``shm``
  transport: the columnar buffers publish once, workers attach
  zero-copy, and *nothing* instance-sized is pickled per worker —
  :class:`~repro.xml.columnar.ColumnarDocument` refuses to pickle
  outright, so a run that completes proves the attach-only property
  structurally. Parity with the serial matcher is asserted; wall time
  is reported ungated (a pool cannot beat serial on one core).
"""

from __future__ import annotations

import glob
import pickle
import time
from dataclasses import dataclass

from repro.buffers.kernels import intersect_many
from repro.buffers.layout import pack

#: The kernel gate: batch galloping intersection must beat the
#: list-based per-element leapfrog by this factor on the dense triangle.
SPEEDUP_TARGET = 2.0


@dataclass(frozen=True)
class KernelTiming:
    """One workload's foil vs batch-kernel wall time (ms)."""

    label: str
    list_ms: float
    buffer_ms: float
    #: Whether the speedup target applies (False = reported only, e.g.
    #: pool-based workloads on machines without spare cores).
    gated: bool = True

    @property
    def speedup(self) -> float:
        """Foil wall time over batch-kernel wall time."""
        return self.list_ms / max(self.buffer_ms, 1e-9)

    @property
    def meets_target(self) -> bool:
        """Gated timings must reach :data:`SPEEDUP_TARGET`."""
        return not self.gated or self.speedup >= SPEEDUP_TARGET


@dataclass(frozen=True)
class ScenarioResult:
    """All timings of one scenario plus its correctness checks."""

    title: str
    timings: tuple[KernelTiming, ...]
    consistent: bool
    #: True when the scenario structurally verified that no worker ever
    #: receives a pickled instance (shm scenarios; trivially true else).
    attach_only: bool = True
    #: Shared-memory segments still present after the run (must be none).
    leaked: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Parity, attach-only and no leaks always; then the gates."""
        return (self.consistent and self.attach_only and not self.leaked
                and all(timing.meets_target for timing in self.timings))


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """(best wall ms, last result) over *repeats* runs of *fn*."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best, result


def leaked_segments() -> tuple[str, ...]:
    """Arena segments still visible in ``/dev/shm`` (leak check)."""
    from repro.buffers.shm import SEGMENT_PREFIX

    return tuple(sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")))


def intersection_scenario(n: int = 3000, *, edges_per_node: int = 16,
                          repeats: int = 2) -> ScenarioResult:
    """Race batch ``intersect_many`` against list-based leapfrog.

    Counts the triangles of the dense random digraph both ways: for
    every edge ``(a, b)``, the successors common to ``a`` and ``b``
    close a triangle. The foil walks each pair with
    :func:`~repro.relational.leapfrog.leapfrog_intersect` over plain
    sorted lists; the batch side intersects the pre-packed typed
    buffers.
    """
    from repro.parallel.bench import dense_triangle
    from repro.relational.iterators import SortedListIterator
    from repro.relational.leapfrog import leapfrog_intersect

    relations = dense_triangle(n, edges_per_node=edges_per_node)
    edges = sorted(relations[0].rows)
    adjacency: dict[int, list[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    for successors in adjacency.values():
        successors.sort()
    packed = {a: pack(successors, hi=n - 1)
              for a, successors in adjacency.items()}
    empty_list: list[int] = []
    empty_packed = pack(empty_list, hi=n - 1)

    def count_with_lists() -> int:
        total = 0
        for a, b in edges:
            iterators = [
                SortedListIterator(adjacency.get(a, empty_list),
                                   presorted=True),
                SortedListIterator(adjacency.get(b, empty_list),
                                   presorted=True),
            ]
            total += sum(1 for _ in leapfrog_intersect(iterators))
        return total

    def count_with_buffers() -> int:
        total = 0
        for a, b in edges:
            common, _probes = intersect_many(
                [packed.get(a, empty_packed), packed.get(b, empty_packed)])
            total += len(common)
        return total

    list_ms, list_count = _best_of(count_with_lists, repeats)
    buffer_ms, buffer_count = _best_of(count_with_buffers, repeats)
    return ScenarioResult(
        title=f"dense triangle intersections (n={n}, {len(edges)} edges, "
              f"{list_count} triangles)",
        timings=(KernelTiming("adj(a) ∩ adj(b) per edge",
                              list_ms, buffer_ms),),
        consistent=list_count == buffer_count)


def spawn_twig_scenario(factor: float = 4.0, *, workers: int = 2,
                        repeats: int = 2) -> ScenarioResult:
    """Race serial twig matching against a spawn-mode shm worker pool.

    The parent publishes the XMark document's columnar buffers into one
    shared-memory arena; ``workers`` spawn-started processes attach
    zero-copy and match their root-posting slices. Attach-only shipping
    is verified structurally (the columnar view refuses to pickle) and
    the arena must be gone from ``/dev/shm`` afterwards.
    """
    from repro.instrumentation import JoinStats
    from repro.parallel.executor import ParallelExecutor
    from repro.xml.columnar import columnar
    from repro.xml.interface import get_twig_algorithm
    from repro.xml.twig_parser import parse_twig
    from repro.xml.xmark import xmark_document

    document = xmark_document(factor, seed=7)
    twig = parse_twig("p=person(/nm=name, //i=interest)")
    matcher = get_twig_algorithm("twigstack")
    executor = ParallelExecutor(workers, transport="shm")

    serial_ms, serial = _best_of(
        lambda: matcher.run(document, twig), repeats)
    stats = JoinStats()
    shm_ms, parallel = _best_of(
        lambda: executor.run_twig(document, twig, "twigstack", stats=stats),
        repeats)
    # The race is against a pool only if the posting really was sliced.
    pooled = any(record.label.startswith("roots [")
                 for record in stats.stages)

    try:
        pickle.dumps(columnar(document))
        attach_only = False  # a pickled view would ship per worker
    except TypeError:
        attach_only = True
    return ScenarioResult(
        title=f"XMark factor {factor:g} twig over spawn+shm "
              f"({document.size()} nodes, {workers} workers)",
        timings=(KernelTiming("twigstack (spawn, attach-only)",
                              serial_ms, shm_ms, gated=False),),
        consistent=pooled and parallel == serial,
        attach_only=attach_only,
        leaked=leaked_segments())
