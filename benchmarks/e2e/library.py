"""The three library workloads: ``rel_triangle``, ``mm_xmark`` and
``corpus_stream``.

Each class follows the protocol ``run.py`` drives: ``setup`` (timed,
repeated ``setups`` times from the same seed, so every repeat builds the
same inputs as fresh objects with cold caches), ``first_query`` (the
headline query once, right after a set-up), ``round`` (a fixed list of
timed operations, repeated until the run's seconds are spent),
``check`` (correctness oracles), ``trace`` (the traced pass: a fixed
operation count, so its counters repeat exactly) and ``teardown``.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from contextlib import nullcontext

from harness import (
    QUICK_DIVISOR,
    WORK,
    Gate,
    Samples,
    Tracer,
    quiesced,
    timed,
)

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.engine import EncodedInstance, get_algorithm, plan_query, run_query
from repro.errors import TransportError
from repro.instrumentation import JoinStats
from repro.relational.relation import Relation


def traced_run_query(tracer: Tracer, query: MultiModelQuery, *,
                     algorithm: "str | None" = None, plan=None,
                     root: "str | None" = "query"):
    """``run_query`` taken apart at its layer boundaries, one span each,
    under one *root* span per query (none when the caller has its own).
    A given *plan* replaces the planning step. Returns (result, stats)."""
    stats = JoinStats()
    with tracer.span(root) if root else nullcontext():
        if plan is None:
            with tracer.span("engine.plan"):
                plan = plan_query(query, algorithm=algorithm)
        with tracer.span("engine.encode"):
            instance = EncodedInstance.from_query(query, plan.order)
        kernel = ("core.xjoin_kernel" if plan.algorithm == "xjoin"
                  else f"engine.kernel.{plan.algorithm}")
        with tracer.span(kernel):
            result = get_algorithm(plan.algorithm).run(instance, stats=stats)
        with tracer.span("engine.decode"):
            if result.schema.attributes != query.attributes:
                result = result.project(query.attributes, name=query.name)
    return result, stats


def join_counters(stats: JoinStats, rows_out: int,
                  xjoin: bool = True) -> dict[str, float]:
    """The effort counters of one join from a caller-supplied JoinStats;
    the ``core.`` ones only when the XJoin operator ran it."""
    counters = {
        "engine.seeks": stats.seeks,
        "engine.comparisons": stats.comparisons,
        "engine.max_intermediate": stats.max_intermediate,
        "engine.rows_out": rows_out,
        "engine.examined_per_row":
            stats.total_intermediate / max(rows_out, 1),
    }
    if xjoin:
        counters.update({
            "core.xjoin_max_intermediate": stats.max_intermediate,
            "core.xjoin_filtered": stats.filtered,
            "core.useful_ratio":
                stats.emitted / max(stats.emitted + stats.filtered, 1),
        })
    return counters


def agm_metrics(query: MultiModelQuery, max_intermediate: int,
                gate: "Gate | None" = None) -> dict[str, float]:
    """The AGM bound of *query* and the observed share of it (Lemma 3.5:
    no stage may hold more partial tuples than the bound)."""
    bound = query.size_bound()
    if gate is not None:
        gate.check(max_intermediate <= bound.bound_ceiling,
                   f"max_intermediate {max_intermediate} exceeds the AGM "
                   f"bound {bound.bound_ceiling}")
    # Rounded: 2 ** log2(bound) carries float error in the last digits.
    return {"core.agm_bound": bound.bound,
            "core.intermediate_over_agm":
                round(max_intermediate / bound.bound, 9)}


def timed_transports(run, transports, prefix: str, layer: dict,
                     unsupported: list[str]) -> None:
    """One wall time per worker transport; a typed TransportError marks
    the cell unsupported (reported as 0), it is not a failure."""
    for transport in transports:
        try:
            ns, _ = timed(lambda: run(transport))
        except TransportError:
            unsupported.append(f"{prefix}.{transport}")
            continue
        layer[f"{prefix}.{transport}_ms"] = ns / 1e6


class Workload:
    """What every workload carries; see the module docstring."""

    name = ""
    setups = 5

    def __init__(self, seed: int, quick: bool, gate: Gate):
        self.seed = seed
        self.gate = gate
        self.scale = QUICK_DIVISOR if quick else 1
        #: Workload-specific untraced numbers (the secondary medians).
        self.extra: dict[str, float] = {}
        #: Cells recorded as unsupported rather than failed.
        self.unsupported: list[str] = []

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------------
# rel_triangle
# ---------------------------------------------------------------------------

class RelTriangle(Workload):
    """Cold ``run_query`` of R(a,b) ⋈ S(b,c) ⋈ T(a,c) over a uniform
    random digraph; every iteration pays plan + encode + kernel + decode."""

    name = "rel_triangle"
    NODES = 2000
    EDGES_PER_NODE = 16
    WORKERS = 2
    #: A set-up is 0.14 s of allocation-heavy work whose timings scatter
    #: (five of them left ten seeds' medians spread by 11 %): nine.
    setups = 9

    def setup(self) -> None:
        rng = random.Random(self.seed)
        n = self.NODES // self.scale

        def edges() -> list[tuple[int, int]]:
            # Drawn with replacement and deduplicated, so the row count
            # (and with it max_intermediate) depends on the seed.
            return sorted({(rng.randrange(n), rng.randrange(n))
                           for _ in range(n * self.EDGES_PER_NODE)})

        self.query = MultiModelQuery(
            [Relation("R", ("a", "b"), edges()),
             Relation("S", ("b", "c"), edges()),
             Relation("T", ("a", "c"), edges())], name="triangle")
        # Statistics are warmed once here; the queries below re-plan
        # against the cached statistics, as a long-lived caller would.
        start = time.perf_counter_ns()
        plan_query(self.query)
        self.stats_cold_ms = (time.perf_counter_ns() - start) / 1e6
        self.results: dict[str, Relation] = {}

    def _query(self, algorithm: str = "generic_join", workers: int = 0):
        return run_query(self.query, algorithm=algorithm, workers=workers)

    def first_query(self, samples: Samples) -> None:
        self.results["generic_join"] = samples.time(
            "first_query", self._query, busy=False)

    def round(self, samples: Samples) -> int:
        for _ in range(2):
            self.results["generic_join"] = samples.time("query", self._query)
        self.results["leapfrog"] = samples.time(
            "leapfrog", lambda: self._query("leapfrog"))
        self.results["workers=2"] = samples.time(
            "par_query", lambda: self._query(workers=self.WORKERS))
        return 4

    def finish(self, samples: Samples) -> None:
        self.extra["parallel.par_query_p50_ms"] = samples.p50_ms("par_query")

    def check(self) -> int:
        r, s, t = (relation.rows for relation in self.query.relations)
        successors: dict[int, list[int]] = {}
        for b, c in s:
            successors.setdefault(b, []).append(c)
        brute = {(a, b, c) for a, b in r for c in successors.get(b, ())
                 if (a, c) in t}
        for label, result in self.results.items():
            self.gate.check(set(result.rows) == brute,
                            f"{label} rows differ from the brute-force "
                            f"triangles")
        stats = JoinStats()
        run_query(self.query, algorithm="generic_join", stats=stats)
        agm_metrics(self.query, stats.max_intermediate, self.gate)
        return stats.max_intermediate

    def trace(self, tracer: Tracer, samples: Samples) -> dict:
        from repro.buffers.frozen import freeze_trie
        from repro.buffers.kernels import intersect_many
        from repro.buffers.layout import pack
        from repro.engine import AdaptivePlanner, FeedbackStore
        from repro.parallel.executor import ParallelExecutor
        from repro.parallel.shm import attach_instance, publish_instance

        layer: dict[str, float] = {"engine.stats_cold_ms": self.stats_cold_ms}
        for algorithm, repeats in (("generic_join", 4), ("leapfrog", 2)):
            for _ in range(repeats):
                with quiesced():
                    result, stats = traced_run_query(tracer, self.query,
                                                     algorithm=algorithm)
            if algorithm == "generic_join":
                layer.update(join_counters(stats, len(result), xjoin=False))
                layer.update(agm_metrics(self.query, stats.max_intermediate))
            else:  # only the leapfrog kernel counts comparisons
                layer["engine.comparisons"] = stats.comparisons

        adaptive = AdaptivePlanner(store=FeedbackStore())
        ns, _ = timed(lambda: adaptive.plan(self.query))
        layer["engine.adaptive_plan_ms"] = ns / 1e6
        layer["engine.adaptive_races"] = adaptive.racer.races

        # buffers: one sorted-set intersection per edge of the graph,
        # succ_S(b) ∩ succ_T(a) for (a, b) in R — the triangle count.
        r, s, t = (relation.rows for relation in self.query.relations)

        def adjacency(rows):
            lists: dict[int, list[int]] = {}
            for key, value in sorted(rows):
                lists.setdefault(key, []).append(value)
            return {key: pack(values) for key, values in lists.items()}

        succ_s, succ_t = adjacency(s), adjacency(t)
        pairs = [(succ_s[b], succ_t[a]) for a, b in sorted(r)
                 if b in succ_s and a in succ_t]

        def intersect_all() -> tuple[int, int]:
            found = probes = 0
            for pair in pairs:
                codes, count = intersect_many(pair)
                found += len(codes)
                probes += count
            return found, probes

        ns, (found, probes) = timed(intersect_all)
        layer["buffers.intersect_ms"] = ns / 1e6
        layer["buffers.intersect_probes"] = probes
        self.gate.check(found == layer["engine.rows_out"],
                        f"intersect_many closed {found} triangles, the join "
                        f"returned {layer['engine.rows_out']:.0f}")

        plan = plan_query(self.query, workers=self.WORKERS)
        instance = EncodedInstance.from_query(self.query, plan.order)
        ns, _ = timed(lambda: [freeze_trie(trie) for trie in instance.tries])
        layer["buffers.freeze_trie_ms"] = ns / 1e6
        ns, arena = timed(lambda: publish_instance(instance, plan.algorithm))
        try:
            layer["buffers.shm_publish_ms"] = ns / 1e6
            layer["buffers.arena_bytes"] = arena.shm.size
            ns, (attached, shell) = timed(
                lambda: attach_instance(arena.name))
            layer["buffers.shm_attach_ms"] = ns / 1e6
            del shell  # its tries hold views into the attachment
            attached.close()
        finally:
            arena.close()
            arena.unlink()

        expected = set(self.results["generic_join"].rows)

        def join_over(transport: str):
            result = ParallelExecutor(self.WORKERS, transport=transport) \
                .run_join(instance, plan.algorithm, morsels=plan.partitions)
            rows = result.project(self.query.attributes).rows
            self.gate.check(set(rows) == expected,
                            f"{transport} transport rows differ from serial")

        timed_transports(join_over,
                         ("fork", "shm", "mmap", "pickle", "serial"),
                         "parallel.join", layer, self.unsupported)
        layer["parallel.speedup_w2"] = (samples.p50_ms("query")
                                        / samples.p50_ms("par_query"))
        layer["trace.overhead_share"] = (  # the 4 generic_join queries
            statistics.median(tracer.durations_ms("query")[:4])
            / samples.p50_ms("query", raw=True) - 1)
        return layer


# ---------------------------------------------------------------------------
# mm_xmark
# ---------------------------------------------------------------------------

#: The four twig shapes of the matcher matrix. ``selective`` gets its
#: two value predicates from seeded thresholds.
TWIG_SHAPES = ("chain", "branch_pc", "branch_ad", "selective")
MATRIX_MATCHERS = ("twigstack", "tjfast", "structural", "accel")


def twig_set(rng: random.Random) -> dict:
    from repro.xml.twig import TwigNode, TwigQuery
    from repro.xml.twig_parser import parse_twig

    increase = rng.randint(20, 30)
    person = rng.randint(40, 80)
    root = TwigNode("oa", tag="open_auction")
    bidder = root.descendant("bd", tag="bidder")
    bidder.child("inc", tag="increase",
                 predicate=lambda v: isinstance(v, int) and v > increase)
    bidder.child("pr", tag="personref",
                 predicate=lambda v: isinstance(v, int) and v < person)
    return {
        "chain": parse_twig("oa=open_auction(//bd=bidder(/pr=personref))"),
        "branch_pc": parse_twig("oa=open_auction(/ir=itemref, /c=current)"),
        "branch_ad": parse_twig("p=person(//nm=name, //i=interest)"),
        "selective": TwigQuery(root),
    }


class MMXMark(Workload):
    """The paper's shape: an XMark twig joined with a fan-out relation
    through XJoin, the twig set on the planner-picked matcher, and
    Figure 3's adversarial instance."""

    name = "mm_xmark"
    FACTOR = 4.0
    FANOUT = 12
    FIGURE3_N = 600
    BASELINE_N = 8

    def _document(self, factor: float):
        from repro.xml.xmark import xmark_document

        return xmark_document(factor, seed=self.seed)

    def setup(self) -> None:
        from repro.data.synthetic import example34_instance
        from repro.xml.columnar import columnar, document_stats
        from repro.xml.parser import parse_document
        from repro.xml.serializer import serialize
        from repro.xml.twig_parser import parse_twig

        rng = random.Random(self.seed)
        text = serialize(self._document(self.FACTOR / self.scale))
        self.text_bytes = len(text.encode())
        start = time.perf_counter_ns()
        self.document = parse_document(text)
        parsed = time.perf_counter_ns()
        self.view = columnar(self.document)
        built = time.perf_counter_ns()
        document_stats(self.document)
        self.setup_ms = {"xml.parse_ms": (parsed - start) / 1e6,
                         "xml.columnar_build_ms": (built - parsed) / 1e6,
                         "xml.doc_stats_ms":
                             (time.perf_counter_ns() - built) / 1e6}
        categories = sorted({node.value
                             for node in self.document.nodes("interest")})
        # The seed thins the fan-out relation, so its size (and the
        # join's intermediates) differ from seed to seed.
        relation = Relation("R", ("x", "i"),
                            [(x, category) for x in range(self.FANOUT)
                             for category in categories
                             if rng.random() < 0.95])
        self.twig = parse_twig("p=person(/nm=name, //i=interest)")
        self.query = MultiModelQuery(
            [relation], [TwigBinding(self.twig, self.document)], name="XQ")
        self.twigs = twig_set(rng)
        self.figure3 = example34_instance(self.FIGURE3_N // self.scale)
        self.results: dict[str, Relation] = {}

    def first_query(self, samples: Samples) -> None:
        self.results["xjoin"] = samples.time(
            "first_query", lambda: run_query(self.query), busy=False)

    def _picked(self, shape: str):
        from repro.engine import choose_twig_algorithm
        from repro.xml.interface import get_twig_algorithm

        twig = self.twigs[shape]
        return get_twig_algorithm(
            choose_twig_algorithm(self.document, twig)), twig

    def round(self, samples: Samples) -> int:
        from repro.parallel.executor import ParallelExecutor

        for _ in range(3):
            self.results["xjoin"] = samples.time(
                "query", lambda: run_query(self.query))
        with samples.block():  # the twig set is ~30 ms: one block
            for shape in TWIG_SHAPES:
                matcher, twig = self._picked(shape)
                for _ in range(2):
                    self.results[shape] = samples.time(
                        "twig", lambda: matcher.run(self.document, twig))
        samples.time("figure3", lambda: run_query(self.figure3.query))
        self.results["par_twig"] = samples.time(
            "par_query",
            lambda: ParallelExecutor(2).run_twig(self.document, self.twig))
        return 13

    def finish(self, samples: Samples) -> None:
        self.extra["xml.twig_p50_ms"] = samples.p50_ms("twig")
        self.extra["parallel.par_query_p50_ms"] = samples.p50_ms("par_query")
        self.extra["xml.build_nodes_per_s"] = self.view.size / (
            (self.setup_ms["xml.parse_ms"]
             + self.setup_ms["xml.columnar_build_ms"]) / 1e3
            * samples.compensation("setup"))

    def _baseline(self):
        """(same rows?, xjoin stats, baseline stats, baseline ms) on
        Figure 3's instance at the small n the baseline's n^5
        intermediate allows."""
        from repro.core.baseline import baseline_join
        from repro.core.xjoin import xjoin
        from repro.data.synthetic import example34_instance

        small = example34_instance(self.BASELINE_N)
        ours, theirs = JoinStats(), JoinStats()
        optimal = xjoin(small.query, stats=ours)
        ns, foil = timed(lambda: baseline_join(small.query, stats=theirs))
        return optimal == foil, ours, theirs, ns / 1e6

    def check(self) -> int:
        from repro.xml.interface import (
            available_twig_algorithms,
            get_twig_algorithm,
        )

        # naive is the oracle, on a factor-1 twin of the same seed; at
        # full size every other matcher must agree with the picked one.
        twin = self._document(1.0 / self.scale)
        for shape, twig in self.twigs.items():
            oracle = get_twig_algorithm("naive").run(twin, twig)
            for name in available_twig_algorithms():
                matcher = get_twig_algorithm(name)
                if name == "naive" or not matcher.supports(twig):
                    continue
                self.gate.check(matcher.run(twin, twig) == oracle,
                                f"{name} differs from naive on {shape} (twin)")
                self.gate.check(matcher.run(self.document, twig)
                                == self.results[shape],
                                f"{name} differs from the picked matcher "
                                f"on {shape}")
        naive = get_twig_algorithm("naive").run(self.document, self.twig)
        self.gate.check(self.results["par_twig"] == naive,
                        "parallel twig rows differ from naive")
        same, _ours, _theirs, _ms = self._baseline()
        self.gate.check(same, f"xjoin differs from the baseline at "
                              f"n={self.BASELINE_N}")
        stats = JoinStats()
        result = run_query(self.query, stats=stats)
        self.gate.check(result == self.results["xjoin"],
                        "xjoin rows changed between runs")
        agm_metrics(self.query, stats.max_intermediate, self.gate)
        return stats.max_intermediate

    def trace(self, tracer: Tracer, samples: Samples) -> dict:
        from repro.engine import choose_twig_algorithm
        from repro.parallel.executor import ParallelExecutor
        from repro.xml.interface import get_twig_algorithm

        layer = dict(self.setup_ms)
        layer["xml.parse_mb_per_s"] = (self.text_bytes / 1e6) / (
            self.setup_ms["xml.parse_ms"] / 1e3)
        for _ in range(4):
            with quiesced():
                result, stats = traced_run_query(tracer, self.query)
        layer.update(join_counters(stats, len(result)))
        layer.update(agm_metrics(self.query, stats.max_intermediate))
        _same, _ours, theirs, baseline_ms = self._baseline()
        layer["core.baseline_max_intermediate"] = theirs.max_intermediate
        layer["core.baseline_ms"] = baseline_ms
        layer["trace.overhead_share"] = (
            tracer.p50_ms("query") / samples.p50_ms("query", raw=True) - 1)

        # The matcher x shape matrix (median of 3), and how often the
        # planner's pick was the fastest matcher for its shape.
        wins = 0
        for shape, twig in self.twigs.items():
            cells = {}
            matchers = MATRIX_MATCHERS + (
                ("pathstack",) if shape == "chain" else ())
            for name in matchers:
                matcher = get_twig_algorithm(name)
                with tracer.span("twig_matrix"):
                    for _ in range(3):
                        with tracer.span(f"xml.twig.{name}.{shape}"):
                            matcher.run(self.document, twig)
                cells[name] = tracer.p50_ms(f"xml.twig.{name}.{shape}")
            picked = choose_twig_algorithm(self.document, twig)
            wins += cells[picked] == min(cells.values())
        layer["xml.twig.planner_pick_wins"] = wins

        def twig_over(transport: str):
            rows = ParallelExecutor(2, transport=transport).run_twig(
                self.document, self.twig)
            self.gate.check(rows == self.results["par_twig"],
                            f"{transport} twig rows differ from fork")

        timed_transports(twig_over, ("fork", "shm", "mmap"),
                         "parallel.twig", layer, self.unsupported)
        serial = timed(lambda: get_twig_algorithm(choose_twig_algorithm(
            self.document, self.twig)).run(self.document, self.twig))[0]
        layer["parallel.speedup_w2"] = (
            serial / 1e6 / samples.p50_ms("par_query", raw=True))
        return layer


# ---------------------------------------------------------------------------
# corpus_stream
# ---------------------------------------------------------------------------

class CorpusStream(Workload):
    """DBLP-shaped text streamed into a file arena, attached, queried:
    the one workload where data is large next to Python-side caches."""

    name = "corpus_stream"
    RECORDS = 20000
    PARITY_RECORDS = 2000
    #: A build is 3.3 s: three of them, and two first queries after each.
    setups = 3

    def _build(self, records: int):
        from repro.data.dblp import dblp_chunks
        from repro.xml.streaming import stream_document

        WORK.mkdir(parents=True, exist_ok=True)
        path = str(WORK / f"corpus-{os.getpid()}-{records}.arena")
        return stream_document(dblp_chunks(records, seed=self.seed),
                               path=path)

    def setup(self) -> None:
        from repro.data.dblp import dblp_chunks

        records = self.RECORDS // self.scale
        self.input_bytes = sum(len(chunk.encode()) for chunk
                               in dblp_chunks(records, seed=self.seed))
        start = time.perf_counter_ns()
        built = self._build(records)
        self.build_s = (time.perf_counter_ns() - start) / 1e9
        self.nodes = built.meta["size"]
        path = built.path
        self.arena_bytes = os.path.getsize(path)
        built.close()  # reopened below, as a second process would
        self.arena = None
        self._attach(path)
        self.results: dict[str, Relation] = {}

    def _attach(self, path: str) -> None:
        """Map the finished arena afresh: a new view, nothing cached."""
        from repro.buffers.mmapfile import FileArena
        from repro.data.dblp import dblp_query
        from repro.xml.arenaview import attach_arena_document

        if self.arena is not None:
            self.arena.close()
        self.arena = FileArena.attach(path, owner=True)
        start = time.perf_counter_ns()
        self.handle, self.view = attach_arena_document(self.arena)
        self.attach_ms = (time.perf_counter_ns() - start) / 1e6
        self.query = dblp_query(self.handle)
        self.twig = self.query.twigs[0].twig

    def first_query(self, samples: Samples) -> None:
        # Two first queries per build: each over a fresh attachment of
        # the arena, as a process that just mapped it.
        for _ in range(2):
            self._attach(self.arena.path)
            self.results["query"] = samples.time(
                "first_query", lambda: run_query(self.query), busy=False)

    def _matcher(self):
        from repro.engine import choose_twig_algorithm
        from repro.xml.interface import get_twig_algorithm

        return get_twig_algorithm(
            choose_twig_algorithm(self.handle, self.twig))

    def round(self, samples: Samples) -> int:
        self.results["query"] = samples.time(
            "query", lambda: run_query(self.query))
        matcher = self._matcher()
        self.results["twig"] = samples.time(
            "twig", lambda: matcher.run(self.handle, self.twig))
        return 2

    def finish(self, samples: Samples) -> None:
        self.extra["xml.twig_p50_ms"] = samples.p50_ms("twig")
        self.extra["xml.build_nodes_per_s"] = self.nodes / (
            self.build_s * samples.compensation("setup"))
        self.extra["buffers.arena_bytes_per_input_byte"] = (
            self.arena_bytes / self.input_bytes)

    def check(self) -> int:
        from repro.data.dblp import dblp_document, dblp_query
        from repro.xml.arenaview import attach_arena_document

        # The streamed arena against the in-memory parse of the same
        # chunks, at a size the node tree still fits comfortably.
        records = self.PARITY_RECORDS // self.scale
        small = self._build(records)
        try:
            handle, _view = attach_arena_document(small)
            document = dblp_document(records, seed=self.seed)
            self.gate.check(run_query(dblp_query(handle))
                            == run_query(dblp_query(document)),
                            "streamed-arena rows differ from the "
                            "in-memory parse")
            matcher = self._matcher()
            self.gate.check(matcher.run(handle, self.twig)
                            == matcher.run(document, self.twig),
                            "streamed-arena twig rows differ from the "
                            "in-memory parse")
        finally:
            small.close()
            small.unlink()
        stats = JoinStats()
        result = run_query(self.query, stats=stats)
        self.gate.check(result == self.results["query"],
                        "query rows changed between runs")
        self.gate.check(self.results["twig"].project(["y", "j"]).rows
                        == result.project(["y", "j"]).rows,
                        "twig rows disagree with the query's (year, journal)")
        return stats.max_intermediate

    def trace(self, tracer: Tracer, samples: Samples) -> dict:
        from repro.data.dblp import dblp_chunks
        from repro.xml.streaming import iter_events

        layer: dict[str, float] = {
            "xml.stream_build_s": self.build_s,
            "xml.arena_attach_ms": self.attach_ms,
            "xml.arena_twig_ms": samples.p50_ms("twig", raw=True),
            "buffers.file_arena_bytes": self.arena_bytes,
        }
        records = self.RECORDS // self.scale
        ns, events = timed(lambda: sum(
            1 for _ in iter_events(dblp_chunks(records, seed=self.seed))))
        layer["xml.stream_events_per_s"] = events / (ns / 1e9)
        for _ in range(2):
            with quiesced():
                result, stats = traced_run_query(tracer, self.query)
        layer.update(join_counters(stats, len(result)))
        layer.update(agm_metrics(self.query, stats.max_intermediate,
                                 self.gate))
        layer["trace.overhead_share"] = (
            tracer.p50_ms("query") / samples.p50_ms("query", raw=True) - 1)
        return layer

    def teardown(self) -> None:
        self.arena.close()
        self.arena.unlink()
