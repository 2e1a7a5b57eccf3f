"""Accelerator benchmark scenarios (shared CLI / pytest harness).

Races the columnar twig kernel (``accel``, :mod:`repro.xml.accel`)
against the holistic twig matchers TJFast and TwigStack on two corpora:

* an in-memory XMark document at scale factor 4
  (:func:`repro.xml.xmark.xmark_document`), and
* the streamed ``xmark-stream`` corpus: the same shape built through
  the SAX-streaming builder into a file-backed mmap arena and queried
  *attached* (:func:`repro.xml.arenaview.attach_arena_document`) — the
  kernel reads the arena view's zero-copy columns exactly as an
  in-memory view's.

Row parity between every matcher is **fatal** (the differential
harness in ``tests/xml/test_accel_oracle.py`` is the fine-grained
oracle; the bench re-checks it at benchmark scale). Speedups are
*reported*, not gated; the bench includes both predicate-heavy and
predicate-free twigs. Every time is a median. ``accel`` has two: the
*first* match of a view version, which builds what the kernel keeps in
``view.derived`` (edge matches between whole postings, value codes),
and a *repeat* match, which reads it; the rivals keep nothing, and the
speedup is against the repeat.

With ``workers >= 2`` each scenario also times the accelerator under
the partition-parallel executor (root-posting slices; a root posting
that fits one kernel chunk makes the serial call), asserting parity
with the serial rows.

Consumed by ``benchmarks/bench_accel.py`` and
``python -m repro bench --suite accel``.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from statistics import median

from repro.relational.relation import Relation
from repro.xml.twig import TwigNode, TwigQuery

#: The rival matchers the accelerator races (both support every twig).
RIVALS = ("tjfast", "twigstack")

#: Timed runs per median.
REPEATS = 5


def _median_of(fn: Callable[[], Relation], repeats: int = REPEATS,
               before: Callable[[], object] | None = None
               ) -> tuple[Relation, float]:
    """(result, median milliseconds) over *repeats* runs of *fn*, each
    after an untimed *before*."""
    times = []
    result = None
    for _ in range(repeats):
        if before is not None:
            before()
        start = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - start) * 1e3)
    assert result is not None
    return result, median(times)


@dataclass(frozen=True)
class AccelTiming:
    """One accel-vs-rival (or serial-vs-parallel) measurement."""

    label: str
    rival: str
    rival_ms: float
    #: A repeat match (under ``accel xN``: the parallel run).
    accel_ms: float
    #: The first match of a view version: nothing derived yet.
    first_ms: float

    @property
    def speedup(self) -> float:
        """How much faster accel ran than the rival (>1 = accel wins)."""
        return self.rival_ms / max(self.accel_ms, 1e-9)


@dataclass(frozen=True)
class AccelScenarioResult:
    """One corpus raced across all bench twigs."""

    title: str
    timings: tuple[AccelTiming, ...]
    #: Every matcher (and the parallel run) produced identical rows.
    consistent: bool


def bench_twigs() -> list[tuple[str, TwigQuery]]:
    """The bench twig set: branching, both axes, with and without
    value predicates (predicates are where the planner picks accel)."""
    from repro.xml.twig_parser import parse_twig

    twigs = [
        ("auction bidders",
         parse_twig("oa=open_auction(/ir=itemref, //pr=personref)")),
        ("person interests",
         parse_twig("p=person(/nm=name, //i=interest)")),
        ("bid chain",
         parse_twig("oa=open_auction(//bd=bidder(/pr=personref))")),
    ]
    # High bids by low-numbered bidders: two value predicates on one
    # branching twig (selective candidate streams).
    root = TwigNode("oa", tag="open_auction")
    bidder = root.descendant("bd", tag="bidder")
    bidder.child("inc", tag="increase",
                 predicate=lambda v: isinstance(v, int) and v > 25)
    bidder.child("pr", tag="personref",
                 predicate=lambda v: isinstance(v, int) and v < 10)
    twigs.append(("high bids, low ids", TwigQuery(root)))
    return twigs


def _race(document, title: str, *, workers: int = 0,
          repeats: int = REPEATS) -> AccelScenarioResult:
    """Race accel against :data:`RIVALS` (and itself in parallel)."""
    from repro.xml.columnar import columnar
    from repro.xml.interface import get_twig_algorithm

    accel = get_twig_algorithm("accel")
    forget = columnar(document).derived.clear
    timings: list[AccelTiming] = []
    consistent = True
    for label, twig in bench_twigs():
        reference, first_ms = _median_of(
            lambda: accel.run(document, twig), repeats, before=forget)
        answer, accel_ms = _median_of(
            lambda: accel.run(document, twig), repeats)
        if answer != reference:
            consistent = False
        for rival_name in RIVALS:
            rival = get_twig_algorithm(rival_name)
            answer, rival_ms = _median_of(
                lambda: rival.run(document, twig), repeats)
            if answer != reference:
                consistent = False
            timings.append(AccelTiming(label, rival_name, rival_ms,
                                       accel_ms, first_ms))
        if workers >= 2:
            from repro.parallel.executor import ParallelExecutor

            executor = ParallelExecutor(workers)
            answer, parallel_ms = _median_of(
                lambda: executor.run_twig(document, twig, "accel"),
                repeats)
            if answer != reference:
                consistent = False
            timings.append(AccelTiming(label, f"accel x{workers}",
                                       accel_ms, parallel_ms, first_ms))
    return AccelScenarioResult(title=title, timings=tuple(timings),
                               consistent=consistent)


def xmark_scenario(factor: float = 4.0, *, seed: int = 7,
                   workers: int = 0,
                   repeats: int = REPEATS) -> AccelScenarioResult:
    """The in-memory corpus: XMark at *factor* (default 4)."""
    from repro.xml.xmark import xmark_document

    document = xmark_document(factor, seed=seed)
    return _race(document,
                 f"XMark factor {factor:g} ({document.size()} nodes)",
                 workers=workers, repeats=repeats)


def stream_scenario(factor: float = 4.0, *, seed: int = 0,
                    workers: int = 0,
                    repeats: int = REPEATS) -> AccelScenarioResult:
    """The streamed corpus: ``xmark-stream`` built into a file arena
    and queried attached (accel reads the mmap-backed columns)."""
    from repro.xml.arenaview import attach_arena_document
    from repro.xml.streaming import stream_document
    from repro.xml.xmark import xmark_stream_chunks

    arena = stream_document(xmark_stream_chunks(factor, seed=seed))
    try:
        handle, view = attach_arena_document(arena)
        return _race(handle,
                     f"xmark-stream factor {factor:g} "
                     f"({view.size} nodes, mmap arena)",
                     workers=workers, repeats=repeats)
    finally:
        arena.close()
        arena.unlink()
