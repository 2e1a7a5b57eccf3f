"""Command-line demo runner: ``python -m repro <command>``.

Commands:

* ``figure1``  — the paper's motivating join (default)
* ``bounds``   — Figure 2 decomposition + Example 3.3 exact bounds
* ``figure3 [n]`` — baseline vs XJoin on the adversarial instance
* ``bench [n]``   — race the engine's algorithms on the standard scenarios
  (``--suite twig`` races the registered twig matchers on an XMark
  document; ``--suite updates`` races delta-apply against
  rebuild-from-scratch for single-tuple / single-subtree changes;
  ``--suite parallel`` races the partition-parallel executor against
  serial execution; ``--suite buffers`` races the batch buffer kernels
  against the list-based leapfrog and the shm spawn transport against
  serial twig matching;
  ``--suite planner`` races the static planner's plan against the
  adaptive feedback-driven planner on the skewed triangle and an
  XMark multi-model scenario; ``--suite corpus`` streams a DBLP-style
  corpus into a file-backed mmap arena and reports build throughput,
  cold-attach query latency and subprocess peak RSS against the
  in-memory build; ``--suite accel`` races the columnar twig
  kernel (``accel``) against TJFast and TwigStack on an XMark
  factor-4 document and the streamed ``xmark-stream`` corpus — row
  parity is fatal, speedups are reported, and with ``--workers N``
  the accelerator also runs partition-parallel)
* ``explain [corpus-spec]`` — print the adaptive planner's chosen plan
  for a corpus spec (default ``skewed``): expansion order, operator,
  partitions, and per-stage estimated vs observed cardinalities from
  one instrumented execution
* ``serve`` — host a corpus behind the line-JSON query service
  (``docs/service.md``): TCP by default (``--port 0`` prints the
  kernel-chosen port), ``--stdio`` for a pipe transport
* ``selftest`` — a quick cross-algorithm consistency check

Options:

* ``--twig-algorithm NAME`` — force one registered twig matcher
  (``twigstack``/``tjfast``/``pathstack``/``structural``/``accel``/
  ``naive``) instead of the planner's stats-driven choice, for A/B
  runs on the multi-model scenarios. Applies to ``figure3``, ``bench``
  and ``selftest``.
* ``--suite NAME`` — ``bench`` suite: ``engine`` (default), ``twig``,
  ``updates``, ``parallel``, ``buffers``, ``planner``, ``corpus`` or
  ``accel``.
* ``--workers N`` — worker processes for partition-parallel execution
  (default 0 = serial). ``bench --suite parallel`` races serial against
  this pool size; ``bench --suite twig`` and ``bench --suite accel``
  run the matchers through the parallel executor (so
  ``bench --suite twig --twig-algorithm accel --workers 2`` is the
  accelerator partition-parallel, sliced on the root tag's pre-range);
  ``selftest`` additionally checks parallel/serial parity for every
  registered algorithm; ``serve`` offloads heavy queries to this pool;
  ``explain`` shows the partition count the adaptive planner would
  choose for this pool size.
* ``--corpus SPEC`` — ``serve``: the hosted corpus, e.g. ``figure1``
  (default), ``bookstore:orders=40,users=12``, ``triangle:n=8``,
  ``dblp:5000`` or ``xmark-stream:4``.
* ``--host H`` / ``--port P`` — ``serve``: TCP bind address (default
  ``127.0.0.1``, port 0 = kernel-chosen, printed on startup).
* ``--stdio`` — ``serve``: speak the protocol over stdin/stdout
  instead of TCP.
* ``--json`` — with ``bench``: also write ``BENCH_<suite>.json`` in the
  current directory, one record per timed workload with ``suite``,
  ``scenario``, ``workload``, ``median_ms`` and ``speedup`` (``null``
  where the workload has no foil to compare against).
"""

from __future__ import annotations

import os
import sys
import time

from repro.core.baseline import baseline_join
from repro.core.decomposition import decompose
from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.core.xjoin import xjoin
from repro.data.scenarios import figure1_query
from repro.data.synthetic import (
    agm_tight_triangle,
    example33_instance,
    example34_instance,
    figure2_twig,
)
from repro.errors import EngineError, TwigError
from repro.instrumentation import JoinStats


def cmd_figure1() -> int:
    query = figure1_query()
    result = xjoin(query).project(["userID", "ISBN", "price"])
    print("Q(userID, ISBN, price):")
    for row in result.sorted_rows():
        print("  ", row)
    return 0


def cmd_bounds() -> int:
    twig = figure2_twig()
    print("decomposition of the Figure 2 twig:")
    for index, path in enumerate(decompose(twig).paths):
        print(f"  R{index + 3}({', '.join(path.attributes)})")
    instance = example33_instance(2)
    twig_only = MultiModelQuery(
        [], [TwigBinding(instance.twig, instance.document)], name="X")
    print(f"twig bound:  n^{twig_only.symbolic_exponent()}")
    print(f"query bound: n^{instance.query.symbolic_exponent()}")
    return 0


def cmd_figure3(n: int = 6, twig_algorithm: str | None = None) -> int:
    instance = example34_instance(n)
    xstats, bstats = JoinStats(), JoinStats()
    start = time.perf_counter()
    xresult = xjoin(instance.query, stats=xstats)
    xtime = time.perf_counter() - start
    start = time.perf_counter()
    bresult = baseline_join(instance.query, twig_algorithm=twig_algorithm,
                            stats=bstats)
    btime = time.perf_counter() - start
    assert xresult == bresult
    print(f"n={n}: |Q|={len(xresult)}")
    print(f"xjoin:    {xtime * 1e3:8.1f}ms, "
          f"max intermediate {xstats.max_intermediate}")
    print(f"baseline: {btime * 1e3:8.1f}ms, "
          f"max intermediate {bstats.max_intermediate}")
    print(f"ratios:   time {btime / max(xtime, 1e-9):.1f}x, "
          f"size {bstats.max_intermediate / max(xstats.max_intermediate, 1):.1f}x")
    return 0


def cmd_bench(n: int = 150, twig_algorithm: str | None = None,
              records: list | None = None) -> int:
    """Race the registered engine algorithms on the standard scenarios."""
    from repro.engine.encoded import EncodedInstance
    from repro.engine.interface import get_algorithm
    from repro.relational.plans import execute_plan, left_deep_plan

    def timed(fn):
        start = time.perf_counter()
        out = fn()
        return out, (time.perf_counter() - start) * 1e3

    relations = agm_tight_triangle(n)
    named = {r.name: r for r in relations}
    order = ("a", "b", "c")
    instance = EncodedInstance.from_relations(relations, order)
    scenario = f"triangle n={n}"
    print(f"triangle (n={n}, {len(relations)} relations; "
          "one shared encoded instance):")
    reference = None
    wcoj_timings = []
    for algorithm in ("generic_join", "leapfrog"):
        result, ms = timed(lambda: get_algorithm(algorithm).run(instance))
        if reference is None:
            reference = result
        elif result != reference:
            print(f"error: {algorithm!r} disagrees with the reference "
                  f"result ({len(result)} vs {len(reference)} rows)",
                  file=sys.stderr)
            return 1
        wcoj_timings.append((algorithm, ms))
        print(f"  {algorithm:<14} {ms:8.2f}ms  |Q|={len(result)}")
    _, plan_ms = timed(lambda: execute_plan(left_deep_plan(["R", "S", "T"]),
                                            named))
    print(f"  {'binary plan':<14} {plan_ms:8.2f}ms  (traditional foil)")
    if records is not None:
        for algorithm, ms in wcoj_timings:
            _record(records, scenario, algorithm, ms,
                    plan_ms / max(ms, 1e-9))
        _record(records, scenario, "binary plan", plan_ms, None)

    m = max(2, min(8, n // 20))
    instance34 = example34_instance(m)
    print(f"figure 3 scenario (n={m}):")
    xresult, xms = timed(lambda: xjoin(instance34.query))
    print(f"  {'xjoin':<14} {xms:8.2f}ms  |Q|={len(xresult)}")
    bresult, bms = timed(
        lambda: baseline_join(instance34.query,
                              twig_algorithm=twig_algorithm))
    if bresult != xresult:
        print("error: baseline disagrees with xjoin "
              f"({len(bresult)} vs {len(xresult)} rows)", file=sys.stderr)
        return 1
    print(f"  {'baseline':<14} {bms:8.2f}ms")
    if records is not None:
        _record(records, f"figure 3 n={m}", "xjoin", xms,
                bms / max(xms, 1e-9))
        _record(records, f"figure 3 n={m}", "baseline", bms, None)
    return 0


def cmd_bench_twig(n: int = 150, twig_algorithm: str | None = None,
                   records: list | None = None, workers: int = 0) -> int:
    """Race the registered twig matchers on an XMark document.

    With ``workers >= 2`` every matcher runs through the
    partition-parallel executor instead of its serial entry point
    (all of them on the root-posting slicer; a root posting that fits
    one chunk of the columnar kernel makes the serial call)."""
    from repro.engine.planner import choose_twig_algorithm
    from repro.xml.interface import available_twig_algorithms, \
        get_twig_algorithm
    from repro.xml.twig_parser import parse_twig
    from repro.xml.xmark import xmark_document

    executor = None
    if workers >= 2:
        from repro.parallel.executor import ParallelExecutor

        executor = ParallelExecutor(workers)
    factor = max(n, 1) / 500
    document = xmark_document(factor, seed=7)
    twigs = [
        ("auction bidders", "oa=open_auction(/ir=itemref, //pr=personref)"),
        ("person interests", "p=person(/nm=name, //i=interest)"),
        ("items by category", "rg=regions(//it=item(/ic=incategory))"),
        ("bid chain", "oa=open_auction(//bd=bidder(/pr=personref))"),
    ]
    names = ([twig_algorithm] if twig_algorithm
             else available_twig_algorithms())
    pool = f", {workers}-worker pool" if executor is not None else ""
    print(f"twig suite (XMark factor {factor:g}, "
          f"{document.size()} nodes{pool}):")
    for label, pattern in twigs:
        twig = parse_twig(pattern)
        planned = choose_twig_algorithm(document, twig)
        print(f"  {label} [{pattern}] -> planner picks {planned!r}")
        reference = None
        timings = []
        for name in names:
            algorithm = get_twig_algorithm(name)
            if not algorithm.supports(twig):
                print(f"    {name:<12} (unsupported)")
                continue
            start = time.perf_counter()
            if executor is not None:
                result = executor.run_twig(document, twig, name)
            else:
                result = algorithm.run(document, twig)
            ms = (time.perf_counter() - start) * 1e3
            if reference is None:
                reference = result
            elif result != reference:
                print(f"error: {name!r} disagrees on {label!r} "
                      f"({len(result)} vs {len(reference)} rows)",
                      file=sys.stderr)
                return 1
            timings.append((name, ms))
            print(f"    {name:<12} {ms:8.2f}ms  |answer|={len(result)}")
        if records is not None and timings:
            slowest = max(ms for _name, ms in timings)
            for name, ms in timings:
                _record(records, label, name, ms, slowest / max(ms, 1e-9))
    return 0


def cmd_bench_updates(n: int = 300, records: list | None = None) -> int:
    """Race delta-apply against rebuild-from-scratch on the dynamic
    scenarios (shared with ``benchmarks/bench_updates.py`` through
    :mod:`repro.updates.bench`): the triangle query under single-tuple
    churn and an XMark factor-2 document under single-subtree churn.
    Fails on a delta/rebuild divergence or a missed speedup target."""
    from repro.updates.bench import (
        SPEEDUP_TARGET,
        triangle_scenario,
        xmark_scenario,
    )

    failures = 0
    for result in (triangle_scenario(n), xmark_scenario()):
        print(f"update suite: {result.title}:")
        for timing in result.timings:
            print(f"  {timing.label:<14} "
                  f"delta-apply {timing.delta_ms:8.3f}ms/update   "
                  f"rebuild {timing.rebuild_ms:8.3f}ms/update   "
                  f"speedup {timing.ratio:5.1f}x "
                  f"(target >= {SPEEDUP_TARGET:g}x)")
            if records is not None:
                _record(records, result.title, timing.label,
                        timing.delta_ms, timing.ratio)
        if not result.consistent:
            print(f"error: {result.title}: session diverged from rebuild",
                  file=sys.stderr)
            failures += 1
        elif not result.ok:
            print(f"error: {result.title}: delta-apply missed the "
                  f"{SPEEDUP_TARGET:g}x target", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def cmd_bench_parallel(n: int = 2000, workers: int = 2,
                       records: list | None = None) -> int:
    """Race the partition-parallel executor against serial execution
    (shared with ``benchmarks/bench_parallel.py`` through
    :mod:`repro.parallel.bench`). Parity failures are fatal; speedups
    are reported against the target but only enforced by the benchmark
    suite (which knows the machine's core budget)."""
    from repro.parallel.bench import (
        SPEEDUP_TARGET,
        available_cores,
        triangle_scenario,
        xmark_scenario,
    )

    failures = 0
    scenarios = (triangle_scenario(max(n, 600), workers=workers),
                 xmark_scenario(4.0, workers=workers,
                                fanout=max(4, min(n // 100, 40))))
    print(f"parallel suite: {workers} workers on "
          f"{available_cores()} core(s); target >= {SPEEDUP_TARGET:g}x "
          "(enforced by benchmarks/bench_parallel.py when cores allow)")
    for result in scenarios:
        print(f"  {result.title}:")
        for timing in result.timings:
            gate = "" if timing.gated else "  (reported only)"
            print(f"    {timing.label:<24} serial {timing.serial_ms:8.1f}ms"
                  f"   parallel {timing.parallel_ms:8.1f}ms"
                  f"   speedup {timing.speedup:5.2f}x{gate}")
            if records is not None:
                _record(records, result.title, timing.label,
                        timing.parallel_ms, timing.speedup)
        if not result.consistent:
            print(f"error: {result.title}: parallel answer diverged from "
                  "serial, or the twig never reached the pool",
                  file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def cmd_bench_buffers(n: int = 3000, records: list | None = None) -> int:
    """Race the batch buffer kernels against the list-based leapfrog
    and the shm spawn transport against serial twig matching (shared
    with ``benchmarks/bench_buffers.py`` through
    :mod:`repro.buffers.bench`). Parity, attach-only shipping and a
    clean ``/dev/shm`` are fatal; the kernel speedup target is enforced
    by the benchmark suite."""
    from repro.buffers.bench import (
        SPEEDUP_TARGET,
        intersection_scenario,
        spawn_twig_scenario,
    )

    failures = 0
    scenarios = (intersection_scenario(max(n, 600)),
                 spawn_twig_scenario(4.0, workers=2))
    print(f"buffers suite: batch kernels vs list foils; kernel target "
          f">= {SPEEDUP_TARGET:g}x (enforced by benchmarks/"
          "bench_buffers.py at n >= 3000)")
    for result in scenarios:
        print(f"  {result.title}:")
        for timing in result.timings:
            gate = "" if timing.gated else "  (reported only)"
            print(f"    {timing.label:<28} foil {timing.list_ms:8.1f}ms"
                  f"   batch {timing.buffer_ms:8.1f}ms"
                  f"   speedup {timing.speedup:5.2f}x{gate}")
            if records is not None:
                _record(records, result.title, timing.label,
                        timing.buffer_ms, timing.speedup)
        if not result.consistent:
            print(f"error: {result.title}: batch answer diverged from the "
                  "list foil, or the twig never reached the pool",
                  file=sys.stderr)
            failures += 1
        if not result.attach_only:
            print(f"error: {result.title}: a worker received a pickled "
                  "instance (attach-only violated)", file=sys.stderr)
            failures += 1
        if result.leaked:
            print(f"error: {result.title}: leaked shared-memory "
                  f"segments {list(result.leaked)!r}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def cmd_bench_corpus(n: int = 8000, records: list | None = None) -> int:
    """Stream a DBLP-style corpus into a file-backed mmap arena (shared
    with ``benchmarks/bench_corpus.py`` through :mod:`repro.data.bench`):
    streamed-build throughput and cold-attach query latency against the
    in-memory parse, plus subprocess peak RSS of both build paths. Row
    parity, the RSS ratio and a clean arena tempdir are fatal."""
    from repro.data.bench import RSS_RATIO_TARGET, dblp_corpus_scenario

    # Floor: below ~4k records the interpreter's baseline RSS drowns
    # the tree-vs-arena difference and the ratio gate is meaningless.
    result = dblp_corpus_scenario(max(n, 4000))
    print(f"corpus suite: {result.title}; streamed build must hold "
          f"peak RSS <= {RSS_RATIO_TARGET:g}x the in-memory build")
    for timing in result.timings:
        print(f"  {timing.label:<14} in-memory {timing.inmemory_ms:8.1f}ms"
              f"   streamed {timing.streamed_ms:8.1f}ms")
        if records is not None:
            _record(records, result.title, timing.label,
                    timing.streamed_ms,
                    timing.inmemory_ms / max(timing.streamed_ms, 1e-9))
    build = result.timings[0]
    throughput = result.nodes / max(build.streamed_ms / 1e3, 1e-9)
    print(f"  streamed build {throughput:,.0f} nodes/s into "
          f"{result.arena_bytes / 1e6:.1f}MB on disk")
    print(f"  peak RSS       in-memory {result.inmemory_peak_kb / 1024:8.1f}MB"
          f"   streamed {result.streamed_peak_kb / 1024:8.1f}MB"
          f"   ratio {result.rss_ratio:.2f}")
    if records is not None:
        records.append({
            "scenario": result.title, "workload": "peak RSS",
            "median_ms": None, "speedup": None,
            "nodes": result.nodes,
            "arena_bytes": result.arena_bytes,
            "build_nodes_per_s": round(throughput),
            "inmemory_peak_kb": result.inmemory_peak_kb,
            "streamed_peak_kb": result.streamed_peak_kb,
            "rss_ratio": round(result.rss_ratio, 3)})
    failures = 0
    if not result.consistent:
        print("error: streamed-arena query rows diverged from the "
              "in-memory build", file=sys.stderr)
        failures += 1
    if not result.meets_rss_target:
        print(f"error: streamed build peak RSS ratio {result.rss_ratio:.2f} "
              f"exceeds the {RSS_RATIO_TARGET:g} target", file=sys.stderr)
        failures += 1
    if result.leaked:
        print(f"error: leaked arena temp files {list(result.leaked)!r}",
              file=sys.stderr)
        failures += 1
    return 1 if failures else 0


def cmd_bench_planner(n: int = 4096, records: list | None = None) -> int:
    """Race the static planner's plan against the adaptive planner
    (shared with ``benchmarks/bench_planner.py`` through
    :mod:`repro.engine.bench`): the steady-state skewed-triangle join
    is gated at the speedup target; the warm whole-query path and the
    XMark multi-model scenario are reported alongside. Parity failures
    are always fatal."""
    from repro.engine.bench import (
        SPEEDUP_TARGET,
        skewed_triangle_scenario,
        xmark_scenario,
    )

    failures = 0
    scenarios = (skewed_triangle_scenario(max(n, 512)), xmark_scenario())
    print("planner suite: static plan vs adaptive (feedback corrections "
          "+ bound ordering + plan racing); gated target "
          f">= {SPEEDUP_TARGET:g}x on the steady-state skewed triangle")
    for result in scenarios:
        print(f"  {result.title}:")
        for timing in result.timings:
            gate = "" if timing.gated else "  (reported only)"
            print(f"    {timing.label:<24} static {timing.static_ms:8.1f}ms"
                  f"   adaptive {timing.adaptive_ms:8.1f}ms"
                  f"   speedup {timing.speedup:5.2f}x{gate}")
            if records is not None:
                _record(records, result.title, timing.label,
                        timing.adaptive_ms, timing.speedup)
        if not result.consistent:
            print(f"error: {result.title}: adaptive answer diverged "
                  "from the static plan", file=sys.stderr)
            failures += 1
        elif not result.ok:
            print(f"error: {result.title}: adaptive plan missed the "
                  f"{SPEEDUP_TARGET:g}x target", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def cmd_bench_accel(n: int = 4, workers: int = 0,
                    records: list | None = None) -> int:
    """Race the columnar twig kernel (``accel``) against TJFast and
    TwigStack (shared with ``benchmarks/bench_accel.py`` through
    :mod:`repro.xml.bench`) on an XMark factor-*n* document and the
    streamed ``xmark-stream`` corpus queried from its mmap arena. Row
    parity across every matcher (and, with ``--workers``, between the
    serial and partition-parallel accelerator runs) is fatal; speedups
    are reported, against a repeat match; the first match of a view
    version (nothing cached) is printed beside it."""
    from repro.xml.bench import stream_scenario, xmark_scenario

    factor = float(max(n, 1))
    failures = 0
    scenarios = (xmark_scenario(factor, workers=workers),
                 stream_scenario(factor, workers=workers))
    pool = (f"; accel also partition-parallel on {workers} workers"
            if workers >= 2 else "")
    print("accel suite: columnar twig kernel vs holistic matchers "
          f"(medians; parity fatal, speedups reported{pool})")
    for result in scenarios:
        print(f"  {result.title}:")
        for timing in result.timings:
            print(f"    {timing.label:<22} {timing.rival:<12} "
                  f"{timing.rival_ms:8.2f}ms   accel first "
                  f"{timing.first_ms:6.2f}ms repeat "
                  f"{timing.accel_ms:6.2f}ms   speedup "
                  f"{timing.speedup:5.2f}x")
            if records is not None:
                _record(records, result.title,
                        f"{timing.label} vs {timing.rival}",
                        timing.accel_ms, timing.speedup)
        if not result.consistent:
            print(f"error: {result.title}: a matcher diverged from the "
                  "accelerator's rows", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def _explain_inputs(query, plan) -> None:
    """The inputs XJoin joins — relations, P-C path relations and A-D
    pair inputs with their cardinalities — and where each twig's
    structure is validated."""
    pairs = {pair.name for decomposition in query.decompositions.values()
             for pair in decomposition.pairs}
    relations = {relation.name for relation in query.relations}
    print("  inputs (cardinality):")
    for edge in query.hypergraph(ad_pairs=True).edges:
        kind = ("relation" if edge.name in relations
                else "A-D pair" if edge.name in pairs else "P-C path")
        print(f"    {edge.name:<28} {kind:<9} {edge.cardinality:>10}")
    for twig_name, attribute in plan.validation:
        where = ("skipped (implied by join)" if attribute is None
                 else f"at level {attribute!r}")
        print(f"  validation: {twig_name} {where}")


def cmd_explain(spec: str = "skewed", workers: int = 0) -> int:
    """Print the adaptive plan for *spec* with estimated vs observed
    per-stage cardinalities (from one instrumented execution), and note
    any re-planned choice once the observation is folded back."""
    from repro.engine.adaptive import (
        AdaptivePlanner,
        FeedbackStore,
        observed_stage_sizes,
    )
    from repro.engine.planner import run_query
    from repro.errors import ServiceError
    from repro.service.corpus import corpus_query

    try:
        query = corpus_query(spec)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    planner = AdaptivePlanner(store=FeedbackStore())
    plan = planner.plan(query, workers=workers)
    racer = planner.racer
    print(f"plan for {spec!r}:")
    print(f"  order:      {' -> '.join(plan.order)}  "
          f"(policy {plan.policy!r})")
    print("  planning:   " + (
        f"raced ({racer.encodes} inputs encoded, {racer.race_ms:.1f} ms)"
        if racer.races else "not raced (one candidate)")
        + f" at epoch {planner.epoch}")
    print("  generations: " + ", ".join(
        f"{name}={generation}" for name, generation
        in planner.store.generations(query).items()))
    print(f"  operator:   {plan.algorithm}")
    for binding_name, matcher in plan.twig_algorithms:
        print(f"  twig:       {binding_name} via {matcher}")
    if plan.algorithm == "xjoin":
        _explain_inputs(query, plan)
    partitions = f"{plan.partitions}"
    if plan.partition_axis is not None:
        partitions += f" on {plan.partition_axis!r}"
    print(f"  partitions: {partitions}")
    stats = JoinStats()
    result = run_query(query, order=plan.order, algorithm=plan.algorithm,
                       stats=stats, workers=workers)
    planner.observe(query, plan.order, stats)
    if stats.inputs:  # per input: encoded by this run, or found cached
        print("  encoded inputs: " + ", ".join(
            f"{name} {'built' if built else 'reused'}"
            for name, (built, _reused) in stats.inputs.items()))
    observed = observed_stage_sizes(stats, plan.order)
    estimates = dict(plan.stage_estimates)
    # The kernels time each level under its stage label, "<verb> <attr>".
    level_ms = {label.partition(" ")[2]: seconds * 1e3
                for label, seconds in stats.phase_times.items()}
    print("  stage cardinalities (upper-bound estimate vs observed) "
          "and kernel time:")
    for attribute in plan.order:
        estimate = estimates.get(attribute)
        seen = observed.get(attribute)
        spent = level_ms.get(attribute)
        estimate_text = "?" if estimate is None else f"{estimate}"
        seen_text = "?" if seen is None else f"{seen}"
        spent_text = "?" if spent is None else f"{spent:.2f}"
        print(f"    {attribute:<12} est {estimate_text:>10}   "
              f"observed {seen_text:>10}   {spent_text:>8} ms"
              + ("   tested, not enumerated" * (attribute == plan.tested)))
    print(f"  result: {len(result)} rows")
    races = racer.races
    replanned = planner.plan(query, workers=workers)
    # Inherited unless the observation moved the corrections materially
    # (or, under updates, an input's generation advanced).
    how = "re-raced" if racer.races > races else "converged, inherited"
    if (replanned.order, replanned.algorithm) != \
            (plan.order, plan.algorithm):
        print(f"  after observation: planner switches to "
              f"{' -> '.join(replanned.order)} ({replanned.algorithm}, "
              f"{how})")
    else:
        print(f"  after observation: plan unchanged ({how})")
    return 0


def cmd_serve(corpus: str, host: str, port: int, stdio: bool,
              workers: int = 0) -> int:
    """Host *corpus* behind the line-JSON query service until EOF /
    a ``shutdown`` request / Ctrl-C (protocol: ``docs/service.md``)."""
    import asyncio

    from repro.errors import ServiceError
    from repro.service.server import ReproService

    try:
        service = ReproService(corpus, workers=workers)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if stdio:
            asyncio.run(service.serve_stdio())
        else:
            asyncio.run(service.serve_tcp(host=host, port=port))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_selftest(twig_algorithm: str | None = None,
                 workers: int = 0) -> int:
    from repro.data.random_instances import random_multimodel_instance

    parallel = None
    if workers > 1:
        from repro.parallel.executor import ParallelExecutor

        parallel = ParallelExecutor(workers)
    failures = 0
    for seed in range(20):
        query = random_multimodel_instance(seed)
        naive = query.naive_join()
        baseline = baseline_join(query, twig_algorithm=twig_algorithm)
        if xjoin(query) != naive or baseline != naive:
            print(f"MISMATCH at seed {seed}")
            failures += 1
        elif parallel is not None and parallel.run_query(query) != naive:
            print(f"PARALLEL MISMATCH at seed {seed}")
            failures += 1
    suffix = f", {workers}-worker parallel parity" if parallel else ""
    print("selftest:", "FAILED" if failures else "ok",
          f"({20 - failures}/20 instances consistent{suffix})")
    return 1 if failures else 0


def _record(records: list, scenario: str, workload: str,
            median_ms: float, speedup: float | None) -> None:
    """Append one ``BENCH_<suite>.json`` record (suite filled on write)."""
    records.append({"scenario": scenario, "workload": workload,
                    "median_ms": round(median_ms, 3),
                    "speedup": None if speedup is None
                    else round(speedup, 3)})


def _write_bench_json(suite: str, records: list) -> None:
    """Write ``BENCH_<suite>.json`` in the current directory."""
    import json

    path = f"BENCH_{suite}.json"
    payload = [{"suite": suite, **record} for record in records]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path} ({len(payload)} records)")


class _BadArgument(Exception):
    """A command argument failed to parse (reported before dispatch)."""


def _int_argument(command: str, args: list[str], default: int) -> int:
    """Parse the command's optional integer argument; only *argument*
    errors map to the exit-2 usage failure, never a command's internals."""
    if len(args) <= 1:
        return default
    try:
        return int(args[1])
    except ValueError as exc:
        print(f"error: bad argument for {command!r}: {exc}", file=sys.stderr)
        raise _BadArgument from None


def _extract_option(args: list[str], flag: str) -> str | None:
    """Remove ``--flag value`` / ``--flag=value`` from *args*; return the
    value (or None). A flag with no value is an argument error."""
    for index, argument in enumerate(args):
        if argument == flag:
            if index + 1 >= len(args):
                print(f"error: {flag} needs a value", file=sys.stderr)
                raise _BadArgument
            del args[index]
            return args.pop(index)
        if argument.startswith(flag + "="):
            del args[index]
            return argument[len(flag) + 1:]
    return None


def _extract_flag(args: list[str], flag: str) -> bool:
    """Remove a valueless ``--flag`` from *args*; True if it was there."""
    if flag in args:
        args.remove(flag)
        return True
    return False


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        twig_algorithm = _extract_option(args, "--twig-algorithm")
        suite = _extract_option(args, "--suite")
        workers_option = _extract_option(args, "--workers")
        corpus = _extract_option(args, "--corpus")
        host = _extract_option(args, "--host")
        port_option = _extract_option(args, "--port")
        stdio = _extract_flag(args, "--stdio")
        emit_json = _extract_flag(args, "--json")
    except _BadArgument:
        return 2
    workers = 0
    if workers_option is not None:
        try:
            workers = int(workers_option)
            if workers < 0:
                raise ValueError("must be >= 0")
        except ValueError as exc:
            print(f"error: bad value for --workers: {exc}", file=sys.stderr)
            return 2
    port = 0
    if port_option is not None:
        try:
            port = int(port_option)
            if not 0 <= port <= 65535:
                raise ValueError("must be in 0..65535")
        except ValueError as exc:
            print(f"error: bad value for --port: {exc}", file=sys.stderr)
            return 2
    if twig_algorithm is not None:
        from repro.xml.interface import available_twig_algorithms

        if twig_algorithm not in available_twig_algorithms():
            print(f"error: unknown twig algorithm {twig_algorithm!r}; "
                  f"choose from {available_twig_algorithms()!r}",
                  file=sys.stderr)
            return 2
    command = args[0] if args else "figure1"
    if workers and not (command in ("selftest", "serve", "explain")
                        or (command == "bench"
                            and suite in ("parallel", "twig", "accel"))):
        # Never let --workers be parsed and then silently ignored: only
        # the parallel/twig/accel bench suites, selftest, serve and
        # explain use it.
        print("error: --workers applies to 'bench --suite "
              "parallel/twig/accel', 'selftest', 'serve' and 'explain' "
              "only", file=sys.stderr)
        return 2
    if emit_json and command != "bench":
        print("error: --json applies to 'bench' only", file=sys.stderr)
        return 2
    if command != "serve" and (corpus is not None or host is not None
                               or port_option is not None or stdio):
        print("error: --corpus/--host/--port/--stdio apply to 'serve' "
              "only", file=sys.stderr)
        return 2
    try:
        if command == "figure1":
            return cmd_figure1()
        if command == "bounds":
            return cmd_bounds()
        if command == "figure3":
            return cmd_figure3(_int_argument(command, args, 6),
                               twig_algorithm)
        if command == "bench":
            suites = ("engine", "twig", "updates", "parallel", "buffers",
                      "planner", "corpus", "accel")
            if suite not in (None,) + suites:
                print(f"error: unknown bench suite {suite!r}; choose from "
                      f"{list(suites)!r}", file=sys.stderr)
                return 2
            records: list | None = [] if emit_json else None
            if suite == "updates":
                rc = cmd_bench_updates(_int_argument(command, args, 300),
                                       records)
            elif suite == "parallel":
                if workers == 1:  # explicit serial contradicts the suite
                    print("error: --suite parallel needs --workers >= 2 "
                          "(default 2)", file=sys.stderr)
                    return 2
                rc = cmd_bench_parallel(
                    _int_argument(command, args, 2000),
                    workers or 2, records)
            elif suite == "buffers":
                rc = cmd_bench_buffers(_int_argument(command, args, 3000),
                                       records)
            elif suite == "planner":
                rc = cmd_bench_planner(_int_argument(command, args, 4096),
                                       records)
            elif suite == "corpus":
                rc = cmd_bench_corpus(_int_argument(command, args, 8000),
                                      records)
            elif suite == "accel":
                rc = cmd_bench_accel(_int_argument(command, args, 4),
                                     workers, records)
            elif suite == "twig":
                rc = cmd_bench_twig(_int_argument(command, args, 150),
                                    twig_algorithm, records, workers)
            else:
                rc = cmd_bench(_int_argument(command, args, 150),
                               twig_algorithm, records)
            if rc == 0 and records is not None:
                _write_bench_json(suite or "engine", records)
            return rc
        if command == "explain":
            return cmd_explain(args[1] if len(args) > 1 else "skewed",
                               workers)
        if command == "serve":
            return cmd_serve(corpus or "figure1", host or "127.0.0.1",
                             port, stdio, workers)
        if command == "selftest":
            return cmd_selftest(twig_algorithm, workers)
    except _BadArgument:
        return 2
    except (TwigError, EngineError) as exc:
        # e.g. --twig-algorithm pathstack forced onto a branching twig,
        # or a --workers pool on a platform without a usable transport.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream filter closed the pipe (e.g. ``repro bench | head``);
        # point stdout at devnull so shutdown flushes don't traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    print(f"error: unknown command {command!r}", file=sys.stderr)
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
