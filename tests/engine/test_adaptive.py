"""Adaptive planner behaviour: the drift ledger, bounds, racing,
convergence.

The convergence test is the subsystem's acceptance property: on the
skewed triangle — whose static statistics pick a provably bad expansion
order — the first race must move the planner off that order, and then
*stop* re-planning (races and epoch both hold steady while no input
drifts).
"""

from __future__ import annotations

import gc
from types import SimpleNamespace

import pytest

from repro.core.multimodel import MultiModelQuery
from repro.data.synthetic import skewed_triangle
from repro.engine.adaptive import (
    AdaptivePlanner,
    FeedbackStore,
    RACE_POLICIES,
    PlanRacer,
    bound_order,
    estimated_stage_sizes,
)
from repro.engine.planner import (
    QueryPlan,
    attribute_order,
    plan_query,
    run_query,
)
from repro.errors import PlanError
from repro.instrumentation import JoinStats
from repro.relational.relation import Relation


def skewed_query(n: int = 512) -> MultiModelQuery:
    return MultiModelQuery(skewed_triangle(n), [], name="skewed")


class TestFeedbackStore:
    def test_an_observation_counts_the_run_and_moves_no_epoch(self):
        query = skewed_query()
        planner = AdaptivePlanner(store=FeedbackStore())
        order = attribute_order(query, "connected")  # the bad order
        for _ in range(3):
            stats = JoinStats()
            run_query(query, order=order, stats=stats)
            planner.observe(query, order, stats)
        store = planner.store
        assert store.observations == 3
        assert store.epoch == 0 and planner.racer.races == 0
        # The first run built each input's trie; the other two reused it.
        assert store.inputs == {name: [1, 2] for name in "RST"}

    def test_churn_advances_the_generation_and_the_epoch(self):
        query = skewed_query()
        store = FeedbackStore()
        store.note_input_update(query, "R", moved=0, size=100)
        assert store.generations(query) == {"R": 0, "S": 0, "T": 0}
        assert store.epoch == 0
        store.note_input_update(query, "R", moved=26, size=100)
        assert store.generations(query) == {"R": 1, "S": 0, "T": 0}
        assert store.epoch == 1

    def test_deltas_accumulate_into_one_generation_advance(self):
        query = skewed_query()
        store = FeedbackStore()
        epoch = store.epoch
        # 25 single rows against 100: each far below the quarter, and
        # together exactly at it — the generation holds.
        for moved in range(25):
            store.note_input_update(query, "R", moved=1, size=100 + moved)
        assert store.generations(query)["R"] == 0
        assert store.epoch == epoch
        # The 26th crosses it: one advance.
        store.note_input_update(query, "R", moved=1, size=125)
        assert store.generations(query) == {
            name: int(name == "R") for name in "RST"}
        assert store.epoch == epoch + 1
        # The new generation is measured against the size it began at.
        for moved in range(31):
            store.note_input_update(query, "R", moved=1, size=126 + moved)
        assert store.generations(query)["R"] == 1
        store.note_input_update(query, "R", moved=1, size=157)
        assert store.generations(query)["R"] == 2

    def test_ledgers_are_scoped_by_the_query_signature(self):
        # A rebuilt query over the same inputs shares the ledger; a
        # query of another name over the same relations keeps its own.
        query = skewed_query()
        store = FeedbackStore()
        store.note_input_update(query, "S", moved=26, size=100)
        assert store.generations(skewed_query()) == {"R": 0, "S": 1, "T": 0}
        other = MultiModelQuery(query.relations, [], name="other")
        assert store.generations(other) == {"R": 0, "S": 0, "T": 0}
        store.note_input_update(other, "S", moved=26, size=100)
        assert store.generations(query)["S"] == 1
        assert store.epoch == 2

    def test_stats_reports_the_ledgers_counters_by_copy(self):
        query = skewed_query()
        planner = AdaptivePlanner(store=FeedbackStore())
        planner.execute(query)
        report = planner.store.stats()
        assert set(report) == {"epoch", "observations", "inputs"}
        assert report["epoch"] == 0 and report["observations"] == 1
        planner.execute(query)
        # The report is a snapshot: later runs move the store's totals,
        # not the counts already handed out.
        assert report["inputs"] != planner.store.stats()["inputs"]
        assert report["observations"] == 1


class TestBoundOrder:
    def test_bound_order_beats_static_worst_stage(self):
        query = skewed_query()
        static = plan_query(query)
        chosen = bound_order(query)
        assert chosen != static.order
        static_worst = max(e.cumulative for e in
                           estimated_stage_sizes(query, static.order))
        chosen_worst = max(e.cumulative for e in
                           estimated_stage_sizes(query, chosen))
        assert chosen_worst < static_worst

    def test_policies_registered(self):
        query = skewed_query()
        assert attribute_order(query, "bound") == bound_order(query)
        with pytest.raises(PlanError):
            attribute_order(query, "corrected")

    def test_policy_name_collision_rejected(self):
        from repro.engine.planner import register_order_policy

        with pytest.raises(PlanError):
            register_order_policy("bound", lambda query: ())


class TestPlanRacer:
    def test_winner_cached_until_epoch_moves(self):
        query = skewed_query()
        racer = PlanRacer(FeedbackStore())
        first = racer.race(query)
        assert first.raced and racer.races == 1
        second = racer.race(query)
        assert not second.raced
        assert (second.winner.order, second.winner.algorithm) == \
            (first.winner.order, first.winner.algorithm)
        assert racer.races == 1
        racer.store.bump_epoch()
        racer.race(query)
        assert racer.races == 2

    def test_candidates_come_from_the_race_policies(self):
        query = skewed_query()
        candidates = PlanRacer(FeedbackStore()).candidates(query)
        assert candidates
        assert {plan.policy for plan in candidates} <= set(RACE_POLICIES)
        assert "corrected" not in RACE_POLICIES

    def test_a_race_encodes_each_distinct_order_once(self):
        # ``encodes`` counts encoded *inputs built*: one per distinct
        # (input, column order) the contenders need, however many
        # orders, operators and halving rounds share it.
        query = skewed_query()
        racer = PlanRacer(FeedbackStore())
        report = racer.race(query)
        assert report.raced and report.rounds >= 1
        orders = {contender.plan.order for contender in report.contenders}
        assert len(orders) > 1
        column_orders = {
            (relation.name, relation.schema.restrict_order(order))
            for order in orders for relation in query.relations}
        assert report.encodes == len(column_orders)
        # Binary inputs have two column orders, the contenders more
        # global orders than that: some share a cached trie.
        assert report.encodes < len(orders) * len(query.relations)
        assert racer.stats()["encodes"] == report.encodes
        assert racer.stats()["race_ms"] > 0
        assert racer.race(query).encodes == 0  # cached: nothing built
        # A re-race over unchanged inputs finds every encoding cached.
        racer.store.bump_epoch()
        again = racer.race(query)
        assert again.raced and again.encodes == 0
        assert racer.stats()["encodes"] == report.encodes

    def test_ties_go_to_the_incumbent_then_to_rank(self, monkeypatch):
        # The clock decides only what it can tell apart: within the
        # hysteresis band of the fastest sample, the incumbent stays,
        # else the best-ranked plan wins — never simply the fastest.
        query = skewed_query()
        racer = PlanRacer(FeedbackStore())
        ranked = racer.candidates(query)
        assert len(ranked) >= 3
        times = {(plan.order, plan.algorithm): 50.0 for plan in ranked}

        def key(plan):
            return (plan.order, plan.algorithm)

        monkeypatch.setattr(
            racer, "_sample", lambda instances, alive, sample:
            [times[key(plan)] for plan in alive])
        times[key(ranked[0])], times[key(ranked[1])] = 1.2, 1.0
        assert key(racer.race(query).winner) == key(ranked[0])
        # The incumbent keeps its crown while it ties with the fastest,
        racer.store.bump_epoch()
        times[key(ranked[0])], times[key(ranked[2])] = 1.2, 1.0
        assert key(racer.race(query).winner) == key(ranked[0])
        # and loses it to a clear margin only.
        racer.store.bump_epoch()
        times[key(ranked[0])] = 1.3
        assert key(racer.race(query).winner) == key(ranked[1])

    def test_a_plan_that_lost_the_round_stops_sampling(self, monkeypatch):
        # Kernels cannot be interrupted; what bounds the price of a
        # catastrophic order is that its sample stops after the slice
        # that cost more than the best plan's whole round.
        from repro.engine import adaptive
        from repro.engine.encoded import EncodedInstance

        query = skewed_query()
        good, bad = bound_order(query), attribute_order(query, "connected")
        plans = [QueryPlan(order=order, algorithm="generic_join",
                           policy="test") for order in (good, bad)]
        instances = {order: EncodedInstance.from_query(query, order)
                     for order in (good, bad)}
        runs = {good: 0, bad: 0}
        clock = [0.0]
        kernel = adaptive.get_algorithm("generic_join")

        class Slow:
            def run(self, instance):
                runs[instance.order] += 1
                assert not gc.isenabled()  # no pause lands in a sample
                # The bad order is a thousand times slower per slice.
                clock[0] += 1.0 if instance.order == bad else 0.001
                return kernel.run(instance)

        monkeypatch.setattr(adaptive, "get_algorithm", lambda name: Slow())
        monkeypatch.setattr(adaptive, "time", SimpleNamespace(
            perf_counter=lambda: clock[0]))
        projected = PlanRacer(FeedbackStore())._sample(instances, plans, 64)
        assert gc.isenabled()
        assert runs[bad] == 1 < runs[good]
        assert projected[1] > adaptive.HYSTERESIS * projected[0]

    def test_candidates_include_static_guard(self):
        query = skewed_query()
        racer = PlanRacer(FeedbackStore())
        static = plan_query(query)
        plans = {(plan.order, plan.algorithm)
                 for plan in racer.candidates(query)}
        assert (static.order, static.algorithm) in plans


class TestConvergence:
    def test_feedback_switches_off_the_bad_order(self):
        # n=4096 puts the good/bad gap (~2.5x) well past the racer's
        # 1.25x hysteresis band; at smaller n the orders are near-tied
        # and the incumbent may legitimately keep its crown.
        query = skewed_query(4096)
        static = plan_query(query)
        planner = AdaptivePlanner(store=FeedbackStore())
        oracle = run_query(query)
        orders = []
        for _ in range(6):
            result = planner.execute(query)
            assert result == oracle  # parity at every step
            orders.append(planner.plan(query).order)
        # The first race has left the static order...
        assert orders[0] != static.order
        # ...for one that beats it under the raw bounds...
        final_worst = max(e.cumulative for e in
                          estimated_stage_sizes(query, orders[-1]))
        static_worst = max(e.cumulative for e in
                           estimated_stage_sizes(query, static.order))
        assert final_worst < static_worst
        # ...and it stays there: no input drifted, so no plan moves.
        assert len(set(orders)) == 1

    def test_a_bumped_epoch_re_races_once(self):
        query = skewed_query(1024)
        planner = AdaptivePlanner(store=FeedbackStore())
        planner.execute(query)
        assert planner.racer.races == 1
        planner.store.bump_epoch()
        for _ in range(3):
            planner.execute(query)
        assert planner.racer.races == 2
        assert planner.epoch == 1

    def test_races_stop_once_converged(self):
        query = skewed_query(4096)
        planner = AdaptivePlanner(store=FeedbackStore())
        for _ in range(4):
            planner.execute(query)
        assert planner.racer.races == 1
        for _ in range(3):
            planner.execute(query)
        assert planner.racer.races == 1
        assert planner.epoch == planner.store.epoch == 0


def sliver_query() -> MultiModelQuery:
    """Each pair of relations shares a sliver of its attribute's values:
    the static domain estimate is 100 codes, the live level 0 holds 8."""
    rows = [(i, i) for i in range(100)]
    shifted = [(i + 92, i + 92) for i in range(100)]
    return MultiModelQuery([Relation("R", ("a", "b"), rows),
                            Relation("S", ("b", "c"), shifted),
                            Relation("T", ("a", "c"), shifted)],
                           [], name="sliver")


class TestPartitions:
    def test_planned_partition_count_is_the_executed_one(self):
        query = sliver_query()
        planner = AdaptivePlanner(store=FeedbackStore())
        plan = planner.plan(query, workers=4)
        assert plan.partitions == plan_query(query, workers=4).partitions
        stats = JoinStats()
        assert planner.execute(query, workers=4, stats=stats) \
            == run_query(query)
        morsels = [record for record in stats.stages
                   if record.label.startswith("morsel [")]
        assert plan.partitions > 1
        assert len(morsels) == plan.partitions
