"""Ablation: structure pushdown vs the paper's relaxed value join.

The paper closes with: "we will improve the worst-case algorithm by
filtering infeasible intermediate results and partially validating the
twig structure during the joining". XJoin does both in its one default
path: every cut A-D twig edge is joined as an encoded pair input, and
twig structure is validated at the level that completes the twig (or
not at all when the join implies it). ``validate_structure=False``
still evaluates the plain relaxation — P-C path relations only — which
is the foil here.

The showcase instance makes the A-D edge the only selective constraint:
the decomposed paths are singletons, so the relaxed join degenerates to
the n^2 cartesian product of ``a`` and ``b`` values, while the pushdown
keeps every stage at n.

A second table times the embedding search itself on the two shapes that
shaped it, both with a *value-bound* branching node (so validation is
not skipped) — no end-to-end workload reaches the search, this file is
its only measurement:

* ``duplicate root`` — every ``a`` carries the same value and owns one
  ``b`` and one ``c``: a check must start from the rare leaf value, not
  walk all n same-valued roots (the search anchors at the rarest value);
* ``duplicate leaves`` — ``a`` values repeat in pairs, every ``b`` and
  ``c`` carries the same value: a check must find the leaf under one
  ``a`` without scanning all n same-valued leaves (it bisects into the
  value's sorted node ids).

Either way the cost per checked projection must not grow with n.
"""

from __future__ import annotations

import time

from conftest import report_table

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.core.xjoin import xjoin
from repro.data.synthetic import example34_instance
from repro.instrumentation import JoinStats
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.navigation import match_relation
from repro.xml.twig_parser import parse_twig


def ad_heavy_instance(n: int) -> MultiModelQuery:
    """n 'a' nodes, each containing exactly its own 'b' descendant."""
    root = XMLNode("r")
    for i in range(n):
        a = root.add("a", text=str(i))
        mid = a.add("m")  # interpose a level so the edge is truly A-D
        mid.add("b", text=str(i))
    document = XMLDocument(root)
    twig = parse_twig("a(//b)")
    return MultiModelQuery([], [TwigBinding(twig, document)], name="Q")


def duplicate_root_instance(n: int) -> MultiModelQuery:
    """n 'a' nodes of one value, each with its own 'b' and 'c' child."""
    root = XMLNode("r")
    for i in range(n):
        a = root.add("a", text="7")
        a.add("b", text=str(i))
        a.add("c", text=str(i))
    twig = parse_twig("a(/b, /c)")
    return MultiModelQuery([], [TwigBinding(twig, XMLDocument(root))],
                           name="Q")


def duplicate_leaves_instance(n: int) -> MultiModelQuery:
    """'a' values repeat in pairs; every 'b' and 'c' carries value 1."""
    root = XMLNode("r")
    for i in range(n):
        a = root.add("a", text=str(i // 2))
        a.add("b", text="1")
        a.add("c", text="1")
    twig = parse_twig("a(/b, /c)")
    return MultiModelQuery([], [TwigBinding(twig, XMLDocument(root))],
                           name="Q")


MODES = [
    ("pushdown", {}),
    ("relaxed join", {"validate_structure": False}),
]


def run_mode(query, **kwargs):
    stats = JoinStats()
    start = time.perf_counter()
    result = xjoin(query, stats=stats, **kwargs)
    return result, stats, time.perf_counter() - start


def ablation_rows(query):
    """One table row per mode, plus each mode's (result, stats)."""
    rows, runs = [], {}
    for label, kwargs in MODES:
        result, stats, elapsed = run_mode(query, **kwargs)
        runs[label] = (result, stats)
        rows.append([label, stats.max_intermediate, len(result),
                     f"{elapsed * 1e3:.1f}ms"])
    return rows, runs


def test_pushdown_ablation_ad_heavy_table():
    n = 40
    query = ad_heavy_instance(n)
    rows, runs = ablation_rows(query)
    pushed, pushed_stats = runs["pushdown"]
    relaxed, relaxed_stats = runs["relaxed join"]
    binding = query.twigs[0]
    assert pushed == match_relation(binding.document, binding.twig)
    assert len(pushed) == n and set(pushed) <= set(relaxed)
    # The relaxed join pays n^2; the pushdown stays linear.
    assert relaxed_stats.max_intermediate >= n * n
    assert pushed_stats.max_intermediate == n
    report_table(
        f"Ablation: structure pushdown (A-D-heavy twig, n={n})",
        ["mode", "max intermediate", "rows", "time"], rows)


def test_pushdown_ablation_example34_table():
    """On Example 3.4 the relations already correlate the twig's
    branches, so the pair inputs change little — included for
    completeness."""
    query = example34_instance(6).query
    rows, runs = ablation_rows(query)
    assert runs["pushdown"][0] == query.naive_join()
    assert runs["pushdown"][1].max_intermediate <= \
        runs["relaxed join"][1].max_intermediate
    report_table(
        "Ablation: structure pushdown (Example 3.4, n=6)",
        ["mode", "max intermediate", "rows", "time"], rows)


def test_validator_value_bound_duplicates_table():
    rows, growth = [], {}
    for label, make, small, large, checks in (
            ("duplicate root", duplicate_root_instance, 40, 160,
             lambda n: n * n),
            ("duplicate leaves", duplicate_leaves_instance, 500, 2000,
             lambda n: n // 2)):
        per_check = {}
        for n in (small, large):
            query = make(n)
            result, stats, _ = run_mode(query)
            binding = query.twigs[0]
            assert result == match_relation(binding.document, binding.twig)
            assert stats.emitted + stats.filtered == checks(n)
            best = min(run_mode(query)[2] for _ in range(3))
            per_check[n] = best / checks(n) * 1e6
            rows.append([label, n, checks(n), f"{per_check[n]:.1f}us"])
        growth[label] = per_check[large] / per_check[small]
    report_table(
        "Validator: embedding search on value-bound duplicates",
        ["shape", "n", "checked projections", "time per check"], rows)
    # A root-first search pays n roots per check here (4x from n to 4n).
    assert growth["duplicate root"] < 2.5, growth


def test_bench_pushdown(benchmark):
    query = ad_heavy_instance(30)
    benchmark(lambda: xjoin(query))


def test_bench_relaxed_join(benchmark):
    query = ad_heavy_instance(30)
    benchmark(lambda: xjoin(query, validate_structure=False))
