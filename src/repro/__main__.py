"""Command-line demo runner: ``python -m repro <command>``.

Commands:

* ``figure1``  — the paper's motivating join (default)
* ``bounds``   — Figure 2 decomposition + Example 3.3 exact bounds
* ``figure3 [n]`` — baseline vs XJoin on the adversarial instance
  (``n >= 1``, default 6)
* ``explain [corpus-spec]`` — print the adaptive planner's chosen plan
  for a corpus spec (default ``skewed``): expansion order, operator,
  partitions, and per-stage estimated vs observed cardinalities from
  one instrumented execution
* ``serve`` — host a corpus behind the line-JSON query service
  (``docs/service.md``): TCP by default (``--port 0`` prints the
  kernel-chosen port), ``--stdio`` for a pipe transport
* ``selftest`` — a quick cross-algorithm consistency check

Benchmarks are not a command: ``python3 benchmarks/e2e/run.py`` runs
every workload end to end (``benchmarks/e2e/README.md``).

Options:

* ``--twig-algorithm NAME`` — force one registered twig matcher
  (``twigstack``/``tjfast``/``pathstack``/``structural``/``accel``/
  ``naive``) instead of the planner's stats-driven choice for the
  baseline's twig sub-query, for A/B runs. Applies to ``figure3`` and
  ``selftest``.
* ``--workers N`` — worker processes for partition-parallel execution
  (default 0 = serial). ``selftest`` additionally checks
  parallel/serial parity for every random instance; ``explain`` shows
  the partition count the adaptive planner would choose for this pool
  size. ``serve`` takes no pool: it evaluates every query on its event
  loop over the pinned inputs.
* ``--corpus SPEC`` — ``serve``: the hosted corpus, e.g. ``figure1``
  (default), ``bookstore:orders=40,users=12``, ``triangle:n=8``,
  ``dblp:5000`` or ``xmark-stream:4``.
* ``--host H`` / ``--port P`` — ``serve``: TCP bind address (default
  ``127.0.0.1``, port 0 = kernel-chosen, printed on startup).
* ``--stdio`` — ``serve``: speak the protocol over stdin/stdout
  instead of TCP.
* ``-h`` / ``--help`` — print this text and exit 0.

An option a command does not use, or any other ``--`` option, is an
error (exit 2), never silently ignored.
"""

from __future__ import annotations

import os
import sys
import time

from repro.core.baseline import baseline_join
from repro.core.decomposition import decompose
from repro.core.multimodel import MultiModelQuery, TwigBinding, \
    _decomposition
from repro.core.xjoin import xjoin
from repro.data.scenarios import figure1_query
from repro.data.synthetic import (
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
    if xresult != bresult:
        print(f"error: baseline disagrees with xjoin ({len(bresult)} vs "
              f"{len(xresult)} rows)", file=sys.stderr)
        return 1
    print(f"n={n}: |Q|={len(xresult)}")
    print(f"xjoin:    {xtime * 1e3:8.1f}ms, "
          f"max intermediate {xstats.max_intermediate}")
    print(f"baseline: {btime * 1e3:8.1f}ms, "
          f"max intermediate {bstats.max_intermediate}")
    print(f"ratios:   time {btime / max(xtime, 1e-9):.1f}x, "
          f"size {bstats.max_intermediate / max(xstats.max_intermediate, 1):.1f}x")
    return 0


def _explain_inputs(query, plan) -> None:
    """The inputs XJoin joins — relations, P-C path relations and A-D
    pair inputs with their cardinalities — and where each twig's
    structure is validated."""
    pairs = {pair.name for binding in query.twigs
             for pair in _decomposition(binding.twig).pairs}
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
    per-stage cardinalities (from one instrumented execution)."""
    from repro.engine.adaptive import AdaptivePlanner, observed_stage_sizes
    from repro.engine.planner import run_query
    from repro.errors import ServiceError
    from repro.service.corpus import corpus_query

    try:
        query = corpus_query(spec)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    planner = AdaptivePlanner()
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
    return 0


def cmd_serve(corpus: str, host: str, port: int, stdio: bool) -> int:
    """Host *corpus* behind the line-JSON query service until EOF /
    a ``shutdown`` request / Ctrl-C (protocol: ``docs/service.md``)."""
    import asyncio

    from repro.errors import ServiceError
    from repro.service.server import ReproService

    try:
        service = ReproService(corpus)
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


class _BadArgument(Exception):
    """A command argument failed to parse (reported before dispatch)."""


def _int_argument(command: str, args: list[str], default: int) -> int:
    """Parse the command's optional positive integer argument; only
    *argument* errors map to the exit-2 usage failure, never a command's
    internals."""
    if len(args) <= 1:
        return default
    try:
        value = int(args[1])
        if value < 1:
            raise ValueError("must be >= 1")
    except ValueError as exc:
        print(f"error: bad argument for {command!r}: {exc}", file=sys.stderr)
        raise _BadArgument from None
    return value


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
    if "-h" in args or "--help" in args:
        print(__doc__)
        return 0
    try:
        twig_algorithm = _extract_option(args, "--twig-algorithm")
        workers_option = _extract_option(args, "--workers")
        corpus = _extract_option(args, "--corpus")
        host = _extract_option(args, "--host")
        port_option = _extract_option(args, "--port")
        stdio = _extract_flag(args, "--stdio")
    except _BadArgument:
        return 2
    unknown = [argument for argument in args if argument.startswith("--")]
    if unknown:
        print(f"error: unknown option {unknown[0]!r}", file=sys.stderr)
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
    # Never let an option be parsed and then silently ignored.
    if twig_algorithm is not None and command not in ("figure3",
                                                      "selftest"):
        print("error: --twig-algorithm applies to 'figure3' and "
              "'selftest' only", file=sys.stderr)
        return 2
    if workers and command not in ("selftest", "explain"):
        print("error: --workers applies to 'selftest' and 'explain' only",
              file=sys.stderr)
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
        if command == "explain":
            return cmd_explain(args[1] if len(args) > 1 else "skewed",
                               workers)
        if command == "serve":
            return cmd_serve(corpus or "figure1", host or "127.0.0.1",
                             port, stdio)
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
        # Downstream filter closed the pipe (e.g. ``repro figure3 | head``);
        # point stdout at devnull so shutdown flushes don't traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    print(f"error: unknown command {command!r}", file=sys.stderr)
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
