"""Batch buffer kernels vs list-based leapfrog; shm spawn transport.

The acceptance gates of the buffers subsystem:

* the batch galloping intersection (:func:`repro.buffers.kernels.
  intersect_many`) must beat the iterator-protocol list-based leapfrog
  by >= 2x on the dense triangle workload (n >= 3000). The kernels are
  single-threaded, so this gate binds on any machine;
* twig matching over a 2-worker **spawn** pool on the ``shm`` transport
  must return exactly the serial answer, ship workers nothing but an
  arena descriptor (attach-only — the columnar view refuses to pickle,
  so the property is structural), and leave ``/dev/shm`` clean.

Pool wall time is reported but ungated — a pool cannot beat serial on
one core, and spawn start-up is priced into every morselled run.
"""

from __future__ import annotations

from conftest import report_table

from repro.buffers.bench import (
    SPEEDUP_TARGET,
    ScenarioResult,
    intersection_scenario,
    spawn_twig_scenario,
)


def _report(result: ScenarioResult, foil: str, batch: str) -> None:
    rows = [[timing.label, f"{timing.list_ms:.1f}ms",
             f"{timing.buffer_ms:.1f}ms", f"{timing.speedup:.2f}x",
             f">={SPEEDUP_TARGET:g}x" if timing.gated else "(reported)"]
            for timing in result.timings]
    report_table(f"Buffers: {result.title}",
                 ["workload", foil, batch, "speedup", "target"], rows)


def test_batch_intersection_speedup():
    """Dense triangle (n=3000): batch kernels >= 2x over list leapfrog."""
    result = intersection_scenario(3000)
    _report(result, "list leapfrog", "intersect_many")
    assert result.consistent, \
        f"{result.title}: batch and list triangle counts diverged"
    for timing in result.timings:
        assert timing.meets_target, (
            f"{result.title}: {timing.label} reached only "
            f"{timing.speedup:.2f}x (target {SPEEDUP_TARGET:g}x)")


def test_spawn_shm_twig_transport():
    """XMark factor 4 twig over spawn+shm: parity, attach-only, no leaks."""
    result = spawn_twig_scenario(4.0, workers=2)
    _report(result, "serial", "spawn+shm x2")
    assert result.consistent, \
        f"{result.title}: shm answer diverged from serial (or never pooled)"
    assert result.attach_only, \
        f"{result.title}: the columnar view pickled (attach-only violated)"
    assert not result.leaked, \
        f"{result.title}: leaked shared-memory segments {result.leaked!r}"
