"""Engine ablation: what dictionary encoding buys, and what it costs.

Two questions the engine refactor must answer with numbers:

1. **Amortisation** — building the EncodedInstance (dictionaries + int
   tries) is extra up-front work; how does it split against the join
   kernel itself? (``JoinStats.phase_times["encode"]`` vs wall time.)
2. **Sharing** — the same instance feeds every registered operator, so
   racing algorithms costs one build, not one per algorithm, and all of
   them decode to identical results.
"""

from __future__ import annotations

import time

from conftest import report_table

from repro.data.synthetic import agm_tight_triangle, example34_instance
from repro.engine.encoded import EncodedInstance
from repro.engine.interface import get_algorithm
from repro.instrumentation import JoinStats
from repro.relational.generic_join import generic_join

ORDER = ("a", "b", "c")


def test_encode_phase_split_table():
    """Encode time is a small, shrinking fraction of total join time."""
    rows = []
    for n in (50, 150, 400):
        relations = agm_tight_triangle(n)
        stats = JoinStats()
        start = time.perf_counter()
        result = generic_join(relations, ORDER, stats=stats)
        total = time.perf_counter() - start
        encode = stats.phase_times["encode"]
        rows.append([n, len(result),
                     f"{encode * 1e3:.2f}ms",
                     f"{total * 1e3:.2f}ms",
                     f"{encode / total:.0%}"])
    report_table(
        "Engine: dictionary-encode phase vs total join time (triangle)",
        ["n", "output", "encode phase", "total", "encode share"],
        rows)


def test_shared_instance_race_table():
    """One encoded instance, every relational operator, equal results."""
    rows = []
    for n in (100, 300):
        relations = agm_tight_triangle(n)
        start = time.perf_counter()
        instance = EncodedInstance.from_relations(relations, ORDER)
        build = time.perf_counter() - start
        timings = {}
        results = {}
        for name in ("generic_join", "leapfrog"):
            start = time.perf_counter()
            results[name] = get_algorithm(name).run(instance)
            timings[name] = time.perf_counter() - start
        assert results["generic_join"] == results["leapfrog"]
        rows.append([n, f"{build * 1e3:.2f}ms",
                     f"{timings['generic_join'] * 1e3:.2f}ms",
                     f"{timings['leapfrog'] * 1e3:.2f}ms"])
    report_table(
        "Engine: one shared instance, raced operators (triangle)",
        ["n", "instance build", "generic join", "LFTJ"],
        rows)


def test_multimodel_instance_reuse_table():
    """XJoin over a prebuilt instance: the build amortises across runs."""
    rows = []
    for n in (4, 8):
        query = example34_instance(n).query
        start = time.perf_counter()
        instance = EncodedInstance.from_query(query, query.attributes)
        build = time.perf_counter() - start
        xjoin_algorithm = get_algorithm("xjoin")
        start = time.perf_counter()
        first = xjoin_algorithm.run(instance)
        run_once = time.perf_counter() - start
        start = time.perf_counter()
        again = xjoin_algorithm.run(instance)
        run_again = time.perf_counter() - start
        assert first == again
        rows.append([n, f"{build * 1e3:.2f}ms",
                     f"{run_once * 1e3:.2f}ms",
                     f"{run_again * 1e3:.2f}ms"])
    report_table(
        "Engine: XJoin over a prebuilt encoded instance (Example 3.4)",
        ["n", "instance build", "first run", "repeat run"],
        rows)


def test_bench_instance_build(benchmark):
    relations = agm_tight_triangle(100)
    # Encoded inputs are cached per Relation object: each sample encodes
    # fresh objects (same rows, new identity), or it would time lookups.
    benchmark(lambda: EncodedInstance.from_relations(
        [relation.with_name(relation.name) for relation in relations],
        ORDER))


def test_bench_generic_join_on_prebuilt_instance(benchmark):
    instance = EncodedInstance.from_relations(agm_tight_triangle(100), ORDER)
    benchmark(lambda: get_algorithm("generic_join").run(instance))
