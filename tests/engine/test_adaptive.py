"""Adaptive planner behaviour: store mechanics, bounds, racing,
convergence.

The convergence test is the subsystem's acceptance property: on the
skewed triangle — whose static statistics pick a provably bad expansion
order — the feedback loop must move the planner off that order within a
bounded number of executed queries, and then *stop* re-planning (races
and epoch both hold steady once observations match estimates).
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
    PlanRacer,
    bound_order,
    estimated_stage_sizes,
    input_versions,
    observed_stage_sizes,
    query_signature,
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


def observe_once(store: FeedbackStore, query: MultiModelQuery,
                 order: tuple[str, ...]) -> int:
    """Execute *query* in *order* and fold the stats into *store*."""
    stats = JoinStats()
    run_query(query, order=order, stats=stats)
    return store.observe(query, order, stats)


class TestFeedbackStore:
    def test_observation_learns_stage_factors(self):
        query = skewed_query()
        store = FeedbackStore()
        order = attribute_order(query, "connected")  # the bad order
        folded = observe_once(store, query, order)
        assert folded == len(order)
        assert store.observations == 1
        # The 'a' level is wildly over-estimated on the skewed instance
        # (bound d*m*caps vs ~n live tuples), so its factor is < 1.
        estimates = estimated_stage_sizes(query, order)
        last = estimates[-1]
        factor = store.stage_factor(query, last.source, last.attribute,
                                    last.prefix)
        assert factor < 1.0

    def test_corrected_estimates_match_observations(self):
        query = skewed_query()
        store = FeedbackStore()
        order = attribute_order(query, "connected")
        observe_once(store, query, order)
        stats = JoinStats()
        run_query(query, order=order, stats=stats)
        observed = observed_stage_sizes(stats, order)
        corrected = estimated_stage_sizes(query, order, store)
        for estimate in corrected:
            assert estimate.cumulative == \
                pytest.approx(observed[estimate.attribute], rel=0.01)

    def test_stale_version_returns_neutral_factor(self):
        query = skewed_query()
        store = FeedbackStore()
        order = attribute_order(query, "connected")
        observe_once(store, query, order)
        estimates = estimated_stage_sizes(query, order)
        last = estimates[-1]
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix) != 1.0
        # A rebuilt instance shares the signature but not the version
        # stamps (fresh Relation objects): corrections must not leak.
        rebuilt = skewed_query()
        assert query_signature(rebuilt) == query_signature(query)
        assert input_versions(rebuilt) != input_versions(query)
        assert store.stage_factor(rebuilt, last.source, last.attribute,
                                  last.prefix) == 1.0

    def test_inherit_refreshes_stamp_churn_invalidates(self):
        query = skewed_query()
        store = FeedbackStore()
        order = attribute_order(query, "connected")
        observe_once(store, query, order)
        estimates = estimated_stage_sizes(query, order)
        last = estimates[-1]
        learned = store.stage_factor(query, last.source, last.attribute,
                                     last.prefix)
        rebuilt = skewed_query()
        store.note_input_update(rebuilt, last.source, churn=False)
        assert store.stage_factor(rebuilt, last.source, last.attribute,
                                  last.prefix) == learned
        epoch = store.epoch
        store.note_input_update(rebuilt, last.source, churn=True)
        assert store.stage_factor(rebuilt, last.source, last.attribute,
                                  last.prefix) == 1.0
        assert store.epoch > epoch

    def test_deltas_accumulate_into_one_generation_advance(self):
        query = skewed_query()
        store = FeedbackStore()
        order = attribute_order(query, "connected")
        observe_once(store, query, order)
        last = estimated_stage_sizes(query, order)[-1]
        learned = store.stage_factor(query, last.source, last.attribute,
                                     last.prefix)
        epoch = store.epoch
        # 25 single rows against 100: each far below the quarter, and
        # together exactly at it — inherited, stamp and factor intact.
        for moved in range(25):
            store.note_input_update(query, last.source, moved=1,
                                    size=100 + moved)
        assert store.generations(query)[last.source] == 0
        assert store.epoch == epoch
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix) == learned
        # The 26th crosses it: one advance, corrections gone.
        store.note_input_update(query, last.source, moved=1, size=125)
        assert store.generations(query) == {
            name: int(name == last.source) for name in "RST"}
        assert store.epoch == epoch + 1
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix) == 1.0
        # The new generation is measured against the size it began at.
        for moved in range(31):
            store.note_input_update(query, last.source, moved=1,
                                    size=126 + moved)
        assert store.generations(query)[last.source] == 1
        store.note_input_update(query, last.source, moved=1, size=157)
        assert store.generations(query)[last.source] == 2

    def test_factors_are_per_level_and_do_not_compound(self):
        # Every level off by a factor within the clamp: the corrected
        # cumulative product must land on the observed sizes, which it
        # cannot when each factor is learned against the cumulative
        # bound and then multiplied level by level.
        query = skewed_query()
        store = FeedbackStore()
        order = attribute_order(query, "connected")
        raw = estimated_stage_sizes(query, order)
        sizes = [max(1, int(estimate.cumulative) // (2 * 3 ** level))
                 for level, estimate in enumerate(raw)]
        stats = JoinStats()
        for attribute, size in zip(order, sizes):
            stats.record_stage(f"level {attribute}", size)
        store.observe(query, order, stats)
        corrected = estimated_stage_sizes(query, order, store)
        assert [round(estimate.cumulative) for estimate in corrected] \
            == sizes

    def test_factors_are_keyed_by_the_bound_set(self):
        # A stage's size depends on which attributes are bound, not on
        # the order they were bound in: the factor serves both orders,
        # and no other bound set (there is no marginal fallback, which
        # would carry a factor into prefixes whose raw bound is another
        # quantity altogether).
        query = skewed_query()
        store = FeedbackStore()
        order = attribute_order(query, "connected")
        observe_once(store, query, order)
        last = estimated_stage_sizes(query, order)[-1]
        learned = store.stage_factor(query, last.source, last.attribute,
                                     last.prefix)
        assert learned != 1.0
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix[::-1]) == learned
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix[:1]) == 1.0
        assert store.stage_factor(query, last.source, last.attribute,
                                  None) == 1.0

    def test_relearning_after_a_generation_advance_is_not_news(self):
        # The advance itself bumps the epoch (one re-race); finding the
        # same factors again afterwards must not force a second one.
        query = skewed_query()
        store = FeedbackStore()
        order = attribute_order(query, "connected")
        observe_once(store, query, order)
        last = estimated_stage_sizes(query, order)[-1]
        learned = store.stage_factor(query, last.source, last.attribute,
                                     last.prefix)
        epoch = store.epoch
        store.note_input_update(query, last.source, churn=True)
        assert store.epoch == epoch + 1
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix) == 1.0
        assert store.stats()["corrections"] < len(order)
        observe_once(store, query, order)
        assert store.epoch == epoch + 1
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix) == learned
        assert store.stats()["corrections"] == len(order)

    def test_epoch_settles_once_observations_repeat(self):
        query = skewed_query()
        store = FeedbackStore()
        order = attribute_order(query, "connected")
        observe_once(store, query, order)
        settled = store.epoch
        for _ in range(3):
            observe_once(store, query, order)
        assert store.epoch == settled

    def test_confirming_first_sample_is_not_material(self):
        # An observation matching the raw estimate must not bump the
        # epoch, however new its key is — otherwise every first contact
        # with a well-estimated query would force a re-race.
        query = MultiModelQuery(skewed_triangle(512), [], name="skewed")
        store = FeedbackStore()
        order = bound_order(query)  # estimates are exact on this order
        epoch = store.epoch
        observe_once(store, query, order)
        assert store.epoch == epoch


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
        assert attribute_order(query, "corrected")  # resolves, non-empty

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

    def test_corrected_candidate_reads_the_racers_own_store(self,
                                                            monkeypatch):
        # Corrections learned on figure1 flip the bound-driven order;
        # they live in a private store, so the registered ``corrected``
        # policy (process-wide default store) cannot see them — the
        # racer must. The raw bounds are sound upper bounds (orderLine
        # counts its candidates), so observing the bound order itself
        # only confirms it: the observed order is another one.
        from repro.data.scenarios import figure1_query
        from repro.engine import adaptive
        from repro.engine.adaptive import _bound_driven_order

        query = figure1_query()
        store = FeedbackStore()
        observe_once(store, query, ("orderID", "userID", "orderLine",
                                    "price", "ISBN"))
        flipped = _bound_driven_order(query, store)
        assert flipped != bound_order(query)
        assert attribute_order(query, "corrected") == bound_order(query)
        monkeypatch.setattr(adaptive, "TOP_K", 8)
        candidates = PlanRacer(store).candidates(query)
        assert ("corrected", flipped) in {
            (plan.policy, plan.order) for plan in candidates}

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
        # Within the budget the planner has left the static order...
        assert orders[-1] != static.order
        # ...for one that beats it under its own calibrated model...
        store = planner.store
        final_worst = max(e.cumulative for e in
                          estimated_stage_sizes(query, orders[-1], store))
        static_worst = max(e.cumulative for e in
                           estimated_stage_sizes(query, static.order,
                                                 store))
        assert final_worst < static_worst
        # ...and it stays there: the last plans are identical.
        assert orders[-1] == orders[-2] == orders[-3]

    def test_races_stop_once_converged(self):
        query = skewed_query(4096)
        planner = AdaptivePlanner(store=FeedbackStore())
        for _ in range(4):
            planner.execute(query)
        settled = planner.racer.races
        for _ in range(3):
            planner.execute(query)
        assert planner.racer.races == settled
        assert planner.epoch == planner.store.epoch


def sliver_query() -> MultiModelQuery:
    """Each pair of relations shares a sliver of its attribute's values:
    the static domain estimate is 100 codes, the live level 0 holds 8,
    so one serial run leaves a level-0 correction in the store."""
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
        planner.execute(query)
        plan = planner.plan(query, workers=4)
        level0 = [estimate for estimate in estimated_stage_sizes(
            query, plan.order, planner.store)
            if estimate.attribute == plan.order[0]]
        assert level0[0].cumulative < 10  # the correction is live
        stats = JoinStats()
        assert planner.execute(query, workers=4, stats=stats) \
            == run_query(query)
        morsels = [record for record in stats.stages
                   if record.label.startswith("morsel [")]
        assert plan.partitions > 1
        assert len(morsels) == plan.partitions

    def test_partition_count_ignores_learned_corrections(self, monkeypatch):
        # One decision, from the static estimate: a correction in the
        # process-wide store does not move plan_query's morsel count.
        from repro.engine import adaptive

        monkeypatch.setattr(adaptive, "_DEFAULT_STORE", FeedbackStore())
        query = sliver_query()
        static = plan_query(query, workers=4).partitions
        AdaptivePlanner().execute(query)
        assert adaptive.default_feedback().observations == 1
        assert plan_query(query, workers=4).partitions == static == 16
