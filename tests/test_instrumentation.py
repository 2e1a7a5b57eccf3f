"""Tests for the shared execution counters."""

import time

from repro.instrumentation import NULL_STATS, JoinStats, ensure_stats


class TestJoinStats:
    def test_record_stage_tracks_max(self):
        stats = JoinStats()
        stats.record_stage("one", 5)
        stats.record_stage("two", 3)
        stats.record_stage("three", 9)
        assert stats.max_intermediate == 9
        assert stats.total_intermediate == 17
        assert stats.stage_sizes() == [5, 3, 9]

    def test_counters(self):
        stats = JoinStats()
        stats.count_comparisons(3)
        stats.count_seeks()
        stats.count_emitted(2)
        stats.count_filtered()
        assert stats.comparisons == 3
        assert stats.seeks == 1
        assert stats.emitted == 2
        assert stats.filtered == 1

    def test_timer_accumulates(self):
        stats = JoinStats()
        stats.start_timer()
        time.sleep(0.002)
        stats.stop_timer()
        first = stats.wall_time
        assert first > 0
        stats.start_timer()
        stats.stop_timer()
        assert stats.wall_time >= first

    def test_stop_without_start_is_noop(self):
        stats = JoinStats()
        stats.stop_timer()
        assert stats.wall_time == 0.0

    def test_summary_keys(self):
        summary = JoinStats().summary()
        assert set(summary) == {
            "max_intermediate", "total_intermediate", "comparisons",
            "seeks", "emitted", "filtered", "inputs_built",
            "inputs_reused", "wall_time", "phase_times"}

    def test_phase_times_travel_through_summary_and_absorb(self):
        worker = JoinStats()
        worker.record_phase("level a", 0.25)
        merged = JoinStats()
        merged.record_phase("level a", 0.5)
        merged.absorb(worker.summary())
        merged.absorb(worker.summary())
        assert merged.phase_times == {"level a": 1.0}

    def test_repr(self):
        assert "max_intermediate=0" in repr(JoinStats())


class TestNullStats:
    def test_all_mutators_are_noops(self):
        NULL_STATS.record_stage("x", 100)
        NULL_STATS.count_comparisons(5)
        NULL_STATS.count_seeks(5)
        NULL_STATS.count_emitted(5)
        NULL_STATS.count_filtered(5)
        NULL_STATS.start_timer()
        NULL_STATS.stop_timer()
        assert NULL_STATS.max_intermediate == 0
        assert NULL_STATS.comparisons == 0
        assert NULL_STATS.wall_time == 0.0

    def test_ensure_stats(self):
        assert ensure_stats(None) is NULL_STATS
        real = JoinStats()
        assert ensure_stats(real) is real
