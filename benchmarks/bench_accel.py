"""The columnar twig kernel vs holistic twig matchers.

Races the ``accel`` backend (a reducer pass and a level-at-a-time
frontier expansion over the columnar arrays, :mod:`repro.xml.accel`;
across workers on the root-posting slices every matcher rides) against
TJFast and TwigStack on the XMark
factor-4 corpus and on the same corpus streamed into a file-backed
mmap arena (``xmark-stream``).

Row parity across every matcher — and across the partition-parallel
accel run at 2 workers — is asserted unconditionally; speedups are
reported via ``report_table``, not gated.
"""

from __future__ import annotations

from conftest import report_table

from repro.xml.bench import AccelScenarioResult, stream_scenario, xmark_scenario

WORKERS = 2
FACTOR = 4.0


def _report(result: AccelScenarioResult) -> None:
    rows = [[timing.label, timing.rival, f"{timing.rival_ms:.2f}ms",
             f"{timing.first_ms:.2f}ms", f"{timing.accel_ms:.2f}ms",
             f"{timing.speedup:.2f}x"]
            for timing in result.timings]
    report_table(f"Accelerator: {result.title}",
                 ["twig", "rival", "rival", "accel first", "accel repeat",
                  "speedup"], rows)


def _assert_scenario(result: AccelScenarioResult) -> None:
    assert result.consistent, \
        f"{result.title}: a matcher diverged from the accelerator rows"


def test_accel_xmark():
    """In-memory XMark factor 4: exact parity, speedups reported."""
    result = xmark_scenario(FACTOR, workers=WORKERS)
    _report(result)
    _assert_scenario(result)


def test_accel_xmark_stream():
    """Streamed mmap-arena corpus: exact parity, speedups reported."""
    result = stream_scenario(FACTOR, workers=WORKERS)
    _report(result)
    _assert_scenario(result)
