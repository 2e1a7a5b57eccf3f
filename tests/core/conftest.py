"""Pytest wiring for the core suites: echo the pushdown suite seed."""

from __future__ import annotations

from pushdown_harness import PUSHDOWN_SEED


def pytest_report_header(config) -> str:
    return (f"structure-pushdown seed: {PUSHDOWN_SEED} "
            f"(reproduce with REPRO_PUSHDOWN_SEED={PUSHDOWN_SEED})")
