"""Execution counters shared by every join algorithm in the library.

The paper's headline evaluation (Figure 3) reports two metrics: running
time and *intermediate result size*. :class:`JoinStats` records both, plus
lower-level effort counters (comparisons, seeks, emitted tuples) that the
end-to-end benchmark's traced pass reports. Algorithms accept an optional ``stats`` argument;
passing ``None`` costs almost nothing because the null object pattern is
implemented by a shared :data:`NULL_STATS` instance whose methods are
no-ops.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class StageRecord:
    """Size of one intermediate stage of a join (e.g. one attribute level)."""

    label: str
    size: int


class JoinStats:
    """Mutable counters threaded through a join execution.

    ``max_intermediate`` is the quantity bounded by Lemma 3.5: the largest
    number of partial tuples alive at any stage of the algorithm.
    """

    #: Does a kernel compute its effort counters (seeks, comparisons)
    #: and per-level timers for this object? Stages, ``emitted``,
    #: ``filtered`` and input counts are recorded either way.
    counting = True

    def __init__(self) -> None:
        self.stages: list[StageRecord] = []
        self.max_intermediate: int = 0
        self.total_intermediate: int = 0
        self.comparisons: int = 0
        self.seeks: int = 0
        self.emitted: int = 0
        self.filtered: int = 0
        self.inputs_built: int = 0  # encoded inputs built / found cached
        self.inputs_reused: int = 0
        self.inputs: dict[str, list[int]] = {}  #: name -> [built, reused]
        self.wall_time: float = 0.0
        self.phase_times: dict[str, float] = {}
        self._start: float | None = None

    # -- stage accounting ------------------------------------------------

    def record_stage(self, label: str, size: int) -> None:
        """Record that stage *label* produced *size* live partial tuples."""
        self.stages.append(StageRecord(label, size))
        self.total_intermediate += size
        if size > self.max_intermediate:
            self.max_intermediate = size

    # -- effort counters ---------------------------------------------------

    def count_comparisons(self, n: int = 1) -> None:
        self.comparisons += n

    def count_seeks(self, n: int = 1) -> None:
        self.seeks += n

    def count_emitted(self, n: int = 1) -> None:
        self.emitted += n

    def count_filtered(self, n: int = 1) -> None:
        self.filtered += n

    def count_inputs(self, instance) -> None:
        """Record which encoded inputs assembling *instance* built."""
        for trie, built in zip(instance.tries, instance.built):
            self.inputs.setdefault(trie.name, [0, 0])[not built] += 1
            self.inputs_built += built
            self.inputs_reused += not built

    # -- timing ----------------------------------------------------------

    def start_timer(self) -> None:
        self._start = time.perf_counter()

    def stop_timer(self) -> None:
        if self._start is not None:
            self.wall_time += time.perf_counter() - self._start
            self._start = None

    def record_phase(self, label: str, seconds: float) -> None:
        """Accumulate time spent in a named execution phase (e.g. the
        engine's dictionary-encoding step vs the join proper)."""
        self.phase_times[label] = self.phase_times.get(label, 0.0) + seconds

    @contextmanager
    def phase(self, label: str):
        """Context manager timing one phase into :attr:`phase_times`."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.record_phase(label, time.perf_counter() - start)

    # -- merging (parallel workers) ----------------------------------------

    def absorb(self, summary: dict, *,
               stage_label: str | None = None) -> None:
        """Fold one worker's counter ``summary()`` into this object.

        Used by the parallel executor: effort counters and phase times
        (the kernels' per-level seconds) add up across morsels,
        ``max_intermediate`` takes the per-morsel peak (the largest
        number of partial tuples alive in any one worker), and an
        optional stage records the morsel's emitted count so stage
        listings show the partition shape.
        """
        self.comparisons += int(summary.get("comparisons", 0))
        self.seeks += int(summary.get("seeks", 0))
        self.emitted += int(summary.get("emitted", 0))
        self.filtered += int(summary.get("filtered", 0))
        self.inputs_built += int(summary.get("inputs_built", 0))
        self.inputs_reused += int(summary.get("inputs_reused", 0))
        self.total_intermediate += int(summary.get("total_intermediate", 0))
        peak = int(summary.get("max_intermediate", 0))
        if peak > self.max_intermediate:
            self.max_intermediate = peak
        for label, seconds in summary.get("phase_times", {}).items():
            self.record_phase(label, seconds)
        if stage_label is not None:
            # Not record_stage: total_intermediate above already counted
            # the worker's stages; this entry only names the morsel.
            self.stages.append(
                StageRecord(stage_label, int(summary.get("emitted", 0))))

    # -- reporting ---------------------------------------------------------

    def stage_sizes(self) -> list[int]:
        return [record.size for record in self.stages]

    def summary(self) -> dict:
        """The counters as a picklable dict (what a worker reports back);
        flat but for ``phase_times``, the per-phase seconds by label."""
        return {
            "max_intermediate": self.max_intermediate,
            "total_intermediate": self.total_intermediate,
            "comparisons": self.comparisons,
            "seeks": self.seeks,
            "emitted": self.emitted,
            "filtered": self.filtered,
            "inputs_built": self.inputs_built,
            "inputs_reused": self.inputs_reused,
            "wall_time": self.wall_time,
            "phase_times": dict(self.phase_times),
        }

    def __repr__(self) -> str:
        return (f"JoinStats(max_intermediate={self.max_intermediate}, "
                f"stages={len(self.stages)}, comparisons={self.comparisons})")


class StageStats(JoinStats):
    """A JoinStats for a caller that reads only stage sizes and input
    counts (a served evaluate's :meth:`~repro.engine.adaptive.
    AdaptivePlanner.observe`, a session's re-derived answer): kernels
    skip the effort counters and the level timers for it."""

    counting = False


class _NullStats(JoinStats):
    """A JoinStats whose mutators are no-ops; shared default instance."""

    counting = False

    def record_stage(self, label: str, size: int) -> None:  # noqa: D102
        pass

    def count_comparisons(self, n: int = 1) -> None:  # noqa: D102
        pass

    def count_seeks(self, n: int = 1) -> None:  # noqa: D102
        pass

    def count_emitted(self, n: int = 1) -> None:  # noqa: D102
        pass

    def count_filtered(self, n: int = 1) -> None:  # noqa: D102
        pass

    def count_inputs(self, instance) -> None:  # noqa: D102
        pass

    def start_timer(self) -> None:  # noqa: D102
        pass

    def stop_timer(self) -> None:  # noqa: D102
        pass

    def record_phase(self, label: str, seconds: float) -> None:  # noqa: D102
        pass

    def absorb(self, summary: dict, *,
               stage_label: str | None = None) -> None:  # noqa: D102
        pass


#: Shared do-nothing stats object used when callers pass ``stats=None``.
NULL_STATS = _NullStats()


def ensure_stats(stats: JoinStats | None) -> JoinStats:
    """Return *stats* or the shared null object."""
    return NULL_STATS if stats is None else stats
