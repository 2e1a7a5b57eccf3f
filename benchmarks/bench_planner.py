"""Adaptive feedback-driven planner vs the static planner.

The acceptance gate of the adaptive planning subsystem: on the skewed
triangle — built so the static statistics pick a provably bad expansion
order — the adaptive planner's raced plan must reach a >= 1.5x speedup
on the steady-state (prebuilt encoded instance) join, and every
adaptive answer must be byte-identical to the static plan's. Warm whole
``run_query`` calls (inputs are encoded once per version, so repeated
calls on the same objects are never cold) and the XMark multi-model
scenario are reported (and parity-checked) but not speed-gated.
"""

from __future__ import annotations

from conftest import report_table

from repro.engine.bench import (
    SPEEDUP_TARGET,
    PlannerScenarioResult,
    skewed_triangle_scenario,
    xmark_scenario,
)


def _report(result: PlannerScenarioResult) -> None:
    rows = [[timing.label, f"{timing.static_ms:.1f}ms",
             f"{timing.adaptive_ms:.1f}ms", f"{timing.speedup:.2f}x",
             f">={SPEEDUP_TARGET:g}x" if timing.gated else "(reported)"]
            for timing in result.timings]
    report_table(
        f"Planner: {result.title} [{result.races} race(s)]",
        ["workload", "static", "adaptive", "speedup", "target"], rows)


def _assert_scenario(result: PlannerScenarioResult) -> None:
    assert result.consistent, \
        f"{result.title}: adaptive answer diverged from the static plan"
    for timing in result.timings:
        assert timing.meets_target, (
            f"{result.title}: {timing.label} reached only "
            f"{timing.speedup:.2f}x (target {SPEEDUP_TARGET:g}x)")


def test_skewed_triangle_adaptive_speedup():
    """Skewed triangle (n=4096): >= 1.5x steady-state, exact parity."""
    result = skewed_triangle_scenario(4096)
    _report(result)
    _assert_scenario(result)
    assert result.adaptive_order != result.static_order, (
        "the adaptive planner chose the static order — the scenario no "
        "longer exercises a planning correction")


def test_xmark_multimodel_no_regression():
    """XMark multi-model: parity through the raced XJoin plan."""
    result = xmark_scenario()
    _report(result)
    _assert_scenario(result)
