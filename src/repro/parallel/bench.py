"""Shared scenarios for the parallel benchmark.

Both front-ends — ``python -m repro bench --suite parallel`` and
``benchmarks/bench_parallel.py`` — time the same code through this
module, so the CLI table, the pytest gate and CI can never drift apart
on what they measure. Each scenario races the serial path against the
partition-parallel executor over identical inputs and checks
byte-parity of the answers. The triangle scenario prebuilds its encoded
instance (pure kernel time on both sides); the XMark scenario times the
whole ``run_query`` on both sides, so planning + encode are included
equally (sub-percent of its multi-second join).

Speedup targets only bind where they physically can: a pool of *w*
workers cannot beat serial on fewer than *w* cores, so
:attr:`ScenarioResult.ok` gates the target on
:func:`available_cores` — parity is asserted unconditionally.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.engine.encoded import EncodedInstance
from repro.engine.interface import get_algorithm
from repro.engine.planner import run_query
from repro.instrumentation import JoinStats
from repro.parallel.executor import ParallelExecutor
from repro.relational.relation import Relation
from repro.xml.interface import get_twig_algorithm
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_document

#: The acceptance target: parallel execution at 4 workers must beat the
#: serial run by this factor on both scenarios (given >= 4 cores).
SPEEDUP_TARGET = 2.0


def available_cores() -> int:
    """CPU cores this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ParallelTiming:
    """One workload's serial vs parallel wall time (ms)."""

    label: str
    serial_ms: float
    parallel_ms: float
    #: Whether the speedup target applies (False = reported only, e.g.
    #: sub-millisecond twig matches that can never amortize a pool).
    gated: bool = True

    @property
    def speedup(self) -> float:
        """Serial wall time over parallel wall time."""
        return self.serial_ms / max(self.parallel_ms, 1e-9)

    @property
    def meets_target(self) -> bool:
        """Gated timings must reach :data:`SPEEDUP_TARGET`."""
        return not self.gated or self.speedup >= SPEEDUP_TARGET


@dataclass(frozen=True)
class ScenarioResult:
    """All timings of one scenario plus the serial/parallel agreement."""

    title: str
    workers: int
    timings: tuple[ParallelTiming, ...]
    consistent: bool

    @property
    def cores_sufficient(self) -> bool:
        """Can this machine physically host the worker pool?"""
        return available_cores() >= self.workers

    @property
    def ok(self) -> bool:
        """Parity always; the speedup target only with enough cores."""
        if not self.consistent:
            return False
        if not self.cores_sufficient:
            return True
        return all(timing.meets_target for timing in self.timings)


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """(best wall ms, last result) over *repeats* runs of *fn*."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best, result


def dense_triangle(n: int, *, edges_per_node: int = 16,
                   seed: int = 42) -> list[Relation]:
    """A uniform random triangle instance (R ⋈ S ⋈ T on a digraph).

    Unlike :func:`~repro.data.synthetic.agm_tight_triangle` — whose
    star shape funnels half the tuples under one top-level code, the
    worst case for key-granular partitioning — the uniform instance
    spreads work across the whole code domain, which is what a speedup
    measurement should isolate. The skewed instance is covered by the
    partition-boundary tests instead.
    """
    rng = random.Random(seed)
    edges = {(rng.randrange(n), rng.randrange(n))
             for _ in range(edges_per_node * n)}
    return [Relation("R", ("a", "b"), edges),
            Relation("S", ("b", "c"), edges),
            Relation("T", ("a", "c"), edges)]


def triangle_scenario(n: int = 8000, *, workers: int = 4,
                      repeats: int = 2) -> ScenarioResult:
    """Race serial vs parallel kernels on the dense triangle join.

    One shared encoded instance; both generic join and leapfrog run
    over it, partitioned on attribute ``a``'s code range.
    """
    relations = dense_triangle(n)
    instance = EncodedInstance.from_relations(relations, ("a", "b", "c"))
    executor = ParallelExecutor(workers)
    timings = []
    consistent = True
    for algorithm in ("generic_join", "leapfrog"):
        serial_ms, serial = _best_of(
            lambda a=algorithm: get_algorithm(a).run(instance), repeats)
        parallel_ms, parallel = _best_of(
            lambda a=algorithm: executor.run_join(instance, a), repeats)
        consistent = consistent and parallel == serial
        timings.append(ParallelTiming(algorithm, serial_ms, parallel_ms))
    return ScenarioResult(
        title=f"dense triangle (n={n}, {len(relations[0])} edges, "
              f"{workers} workers)",
        workers=workers, timings=tuple(timings), consistent=consistent)


def xmark_scenario(factor: float = 4.0, *, workers: int = 4,
                   fanout: int = 40,
                   repeats: int = 2) -> ScenarioResult:
    """Race serial vs parallel on an XMark multi-model join + twig match.

    The gated workload is the paper's own: XJoin over an XMark document
    joined with a relation fanning each interest category out to
    ``fanout`` extra values — per-tuple structure validation dominates
    and partitions on the relational attribute's code range. The pure
    twig-matcher race (root-posting partitioning) is reported alongside
    but ungated: single-document matching is millisecond-scale, below
    any process pool's break-even point.
    """
    document = xmark_document(factor, seed=7)
    twig = parse_twig("p=person(/nm=name, //i=interest)")
    categories = sorted({node.value for node in document.nodes("interest")})
    relation = Relation("R", ("x", "i"),
                        [(x, category) for x in range(fanout)
                         for category in categories])
    query = MultiModelQuery([relation], [TwigBinding(twig, document)],
                            name="XQ")
    # The partition axis must lead the expansion, so pin the order: the
    # relational fan-out attribute has the widest domain.
    order = ("x", "i", "p", "nm")
    executor = ParallelExecutor(workers)

    serial_ms, serial = _best_of(
        lambda: run_query(query, order=order), repeats)
    parallel_ms, parallel = _best_of(
        lambda: executor.run_query(query, order=order), repeats)
    consistent = parallel == serial
    timings = [ParallelTiming("xjoin multi-model", serial_ms, parallel_ms)]

    matcher = get_twig_algorithm("twigstack")
    twig_serial_ms, twig_result = _best_of(
        lambda: matcher.run(document, twig), max(repeats, 3))
    stats = JoinStats()
    twig_parallel_ms, twig_parallel = _best_of(
        lambda: executor.run_twig(document, twig, "twigstack", stats=stats),
        max(repeats, 3))
    # The race is against a pool only if the posting really was sliced.
    pooled = any(record.label.startswith("roots [")
                 for record in stats.stages)
    consistent = consistent and pooled and twig_parallel == twig_result
    timings.append(ParallelTiming("twigstack (per-document)",
                                  twig_serial_ms, twig_parallel_ms,
                                  gated=False))
    return ScenarioResult(
        title=f"XMark factor {factor:g} ({document.size()} nodes, "
              f"fanout {fanout}, {workers} workers)",
        workers=workers, timings=tuple(timings), consistent=consistent)
