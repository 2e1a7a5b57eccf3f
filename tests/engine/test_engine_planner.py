"""Tests for the stats-driven planner (orders, algorithm choice, caches)."""

import pytest

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.data.synthetic import example34_instance
from repro.engine.planner import (
    QueryStatistics,
    cached_relation_stats,
    choose_algorithm,
    choose_order_policy,
    connected_order,
    domain_order,
    plan_query,
    run_query,
    statistics_for,
)
from repro.errors import PlanError
from repro.relational.relation import Relation
from repro.xml.model import XMLDocument, element
from repro.xml.twig_parser import parse_twig


class TestCachedStatistics:
    def test_relation_stats_cached_per_object(self):
        r = Relation("R", ("a",), [(1,), (2,)])
        assert cached_relation_stats(r) is cached_relation_stats(r)

    def test_query_statistics_memoised(self):
        query = MultiModelQuery([Relation("R", ("a",), [(1,)])])
        assert statistics_for(query) is statistics_for(query)

    def test_caches_release_collected_inputs(self):
        """Neither cache pins its inputs: collecting the relation/query
        evicts the entry."""
        import gc
        import weakref

        r = Relation("R", ("a",), [(1,)])
        query = MultiModelQuery([r])
        cached_relation_stats(r)
        statistics_for(query).domain_estimates()
        relation_ref = weakref.ref(r)
        query_ref = weakref.ref(query)
        del r, query
        gc.collect()
        assert relation_ref() is None
        assert query_ref() is None

    def test_domain_estimates_computed_once(self):
        query = MultiModelQuery([Relation("R", ("a", "b"),
                                          [(1, 2), (1, 3)])])
        stats = QueryStatistics(query)
        first = stats.domain_estimates()
        assert first == {"a": 1, "b": 2}
        assert stats.domain_estimates() is first

    def test_twig_domains_counted(self):
        doc = XMLDocument(element("r", element("x", text="7"),
                                  element("x", text="8")))
        query = MultiModelQuery([], [TwigBinding(parse_twig("x"), doc)])
        assert statistics_for(query).domain_estimate("x") == 2


class TestStatisticsStamp:
    """The memo is stamped with the inputs it read: it holds while they
    hold and is derived again, in place, when one is swapped or a
    document's version moves."""

    def test_the_memo_holds_while_its_inputs_hold(self):
        query = MultiModelQuery([Relation("R", ("a", "b"),
                                          [(1, 2), (1, 3)])])
        stats = statistics_for(query)
        first = stats.domain_estimates()
        assert statistics_for(query) is stats
        assert statistics_for(query).domain_estimates() is first

    def test_a_swapped_relation_is_derived_again(self):
        query = MultiModelQuery([Relation("R", ("a", "b"),
                                          [(1, 2), (1, 3)])])
        stats = statistics_for(query)
        assert stats.domain_estimates() == {"a": 1, "b": 2}
        query.relations[0] = Relation("R", ("a", "b"),
                                      [(1, 2), (2, 2), (3, 2)])
        assert statistics_for(query) is stats  # refreshed, not dropped
        assert stats.domain_estimates() == {"a": 3, "b": 1}

    def test_a_swapped_binding_is_derived_again(self):
        doc = XMLDocument(element("r", element("x", text="7"),
                                  element("x", text="8"),
                                  element("y", text="9")))
        query = MultiModelQuery([], [TwigBinding(parse_twig("x"), doc)])
        stats = statistics_for(query)
        assert [attribute for _twig, attribute
                in stats.twig_domains()] == ["x"]
        query.twigs[0] = TwigBinding(parse_twig("y"), doc)
        assert [attribute for _twig, attribute
                in statistics_for(query).twig_domains()] == ["y"]
        assert stats.domain_estimate("y") == 1

    def test_a_document_version_derives_the_paths_again(self):
        doc = XMLDocument(element("r", element("x", text="7"),
                                  element("x", text="8")))
        query = MultiModelQuery([], [TwigBinding(parse_twig("r(/x)"),
                                                 doc)])
        stats = statistics_for(query)
        first = stats.path_cardinality_estimates()
        assert statistics_for(query).path_cardinality_estimates() is first
        doc.bump_version()
        again = statistics_for(query).path_cardinality_estimates()
        assert again is not first and again == first

    def test_the_stamp_pins_no_swapped_relation(self):
        """The stamp holds its inputs weakly: a relation swapped out of
        the query is freed even before the memo is read again."""
        import gc
        import weakref

        query = MultiModelQuery([Relation("R", ("a",), [(1,), (2,)])])
        statistics_for(query).domain_estimates()
        swapped = weakref.ref(query.relations[0])
        query.relations[0] = Relation("R", ("a",), [(3,)])
        gc.collect()
        assert swapped() is None
        assert statistics_for(query).domain_estimates() == {"a": 1}

    @pytest.mark.parametrize("order", [
        None, "appearance", "domain", "connected", "bound",
        ("orderLine", "price", "ISBN", "orderID", "userID")])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_one_stamp_per_plan(self, monkeypatch, order, workers):
        """``plan_query`` checks the stamp once and hands the statistics
        to every policy function: one :func:`_input_stamp` per plan,
        cold or warm."""
        import repro.engine.adaptive  # noqa: F401  (registers "bound")
        from repro.engine import planner
        from repro.service.corpus import corpus_query

        query = corpus_query("bookstore:orders=40,users=8")
        stamps = []
        stamp = planner._input_stamp
        monkeypatch.setattr(planner, "_input_stamp",
                            lambda query: stamps.append(1) or stamp(query))
        for _ in range(2):  # the statistics built, then memoised
            stamps.clear()
            plan_query(query, order=order, workers=workers)
            assert len(stamps) == 1


class TestOrderPolicies:
    def test_domain_order_empty_relation_first(self):
        """Empty domains (estimate 0) sort first — the join is empty and
        the expansion should discover that immediately."""
        empty = Relation("E", ("z",))
        full = Relation("R", ("a", "z"), [(i, i) for i in range(5)])
        query = MultiModelQuery([full, empty])
        assert domain_order(query)[0] == "z"

    def test_connected_order_disconnected_hypergraph(self):
        """A disconnected query restarts greedily instead of failing."""
        r = Relation("R", ("a", "b"), [(1, 2)])
        s = Relation("S", ("y", "z"), [(8, 9), (7, 9)])
        query = MultiModelQuery([r, s])
        order = connected_order(query)
        assert sorted(order) == ["a", "b", "y", "z"]
        # Each relation's attributes stay adjacent (no pointless hop to
        # the other component mid-relation).
        positions = {a: i for i, a in enumerate(order)}
        assert abs(positions["a"] - positions["b"]) == 1
        assert abs(positions["y"] - positions["z"]) == 1

    def test_connected_order_empty_domain_component(self):
        query = MultiModelQuery([Relation("E", ("z",)),
                                 Relation("R", ("a",), [(1,)])])
        assert sorted(connected_order(query)) == ["a", "z"]


class TestPlanChoice:
    def test_twig_queries_use_xjoin(self):
        query = example34_instance(2).query
        assert choose_algorithm(query) == "xjoin"
        assert plan_query(query).algorithm == "xjoin"

    def test_relational_queries_use_generic_join(self):
        query = MultiModelQuery([Relation("R", ("a",), [(1,)])])
        assert choose_algorithm(query) == "generic_join"

    def test_skewed_domains_choose_connected_policy(self):
        r = Relation("R", ("a", "b"), [(0, i) for i in range(20)])
        query = MultiModelQuery([r])
        assert choose_order_policy(query) == "connected"

    def test_uniform_domains_keep_appearance_policy(self):
        r = Relation("R", ("a", "b"), [(i, i) for i in range(4)])
        query = MultiModelQuery([r])
        assert choose_order_policy(query) == "appearance"

    def test_unknown_algorithm_rejected(self):
        query = MultiModelQuery([Relation("R", ("a",), [(1,)])])
        with pytest.raises(PlanError):
            plan_query(query, algorithm="quantum_join")

    def test_explicit_order_recorded_as_given(self):
        query = MultiModelQuery([Relation("R", ("a", "b"), [(1, 2)])])
        plan = plan_query(query, order=("b", "a"))
        assert plan.policy == "given"
        assert plan.order == ("b", "a")

    def test_run_query_empty_domain(self):
        query = MultiModelQuery([Relation("E", ("z",)),
                                 Relation("R", ("z",), [(1,)])])
        assert len(run_query(query)) == 0


class TestIdentityBoundEstimates:
    """A twig node bound by identity offers one value per valueless
    candidate — what the tries store — not the one distinct ``None``."""

    @staticmethod
    def executed(query):
        from repro.engine.adaptive import (
            estimated_stage_sizes,
            observed_stage_sizes,
        )
        from repro.instrumentation import JoinStats

        plan = plan_query(query)
        stats = JoinStats()
        run_query(query, order=plan.order, stats=stats)
        observed = observed_stage_sizes(stats, plan.order)
        return plan, [(estimate.attribute, estimate.cumulative,
                       observed[estimate.attribute])
                      for estimate in estimated_stage_sizes(query,
                                                            plan.order)]

    def test_dblp_articles_count_their_candidates(self):
        from repro.data.dblp import dblp_document, dblp_query

        document = dblp_document(2000)
        query = dblp_query(document)
        articles = len(document.nodes("article"))
        assert statistics_for(query).domain_estimate("a") == articles > 1000
        plan, stages = self.executed(query)
        assert plan.order[-1] == plan.tested == "a"
        for attribute, estimated, observed in stages:
            assert estimated >= observed, attribute
        assert max(observed for _a, _e, observed in stages) < articles

    def test_bookstore_order_lines_count_their_candidates(self):
        from repro.service.corpus import corpus_query

        query = corpus_query("bookstore:orders=200,users=40")
        lines = len(query.twigs[0].document.nodes("orderLine"))
        assert statistics_for(query).domain_estimate("orderLine") \
            == lines == 200
        plan, stages = self.executed(query)
        # 200 x 200 x 72 without it: enumerated where the policy put it.
        assert plan.tested is None and plan.order[-1] != "orderLine"
        for attribute, estimated, observed in stages:
            assert estimated >= observed, attribute
        # ``domain`` and ``connected`` still open with it (it closes an
        # order or opens one), so the static plan's widest stage is the
        # count of order lines whatever rows R holds — the served
        # workloads' ``max_intermediate`` is exact for a seed.
        assert plan.order[0] == domain_order(query)[0] == "orderLine"
        assert max(observed for _a, _e, observed in stages) == lines
        fewer = MultiModelQuery([Relation("R", ("orderID", "userID"),
                                          sorted(query.relations[0].rows)[:9])],
                                query.twigs)
        plan, stages = self.executed(fewer)
        assert plan.order[0] == "orderLine"
        assert max(observed for _a, _e, observed in stages) == lines

    def test_mixed_tag_counts_values_and_identities(self):
        doc = XMLDocument(element(
            "r", element("x", text="7"), element("x", text="7"),
            element("x"), element("x")))
        query = MultiModelQuery([], [TwigBinding(parse_twig("x"), doc)])
        assert statistics_for(query).domain_estimate("x") == 3
        assert statistics_for(query).twig_domains()["X", "x"] == (3, False)
        shared = MultiModelQuery([Relation("R", ("x",), [(7,), (None,)])],
                                 [TwigBinding(parse_twig("x"), doc)])
        assert statistics_for(shared).domain_estimate("x") == 2

    def test_no_existential_attribute_estimates_nothing(self, monkeypatch):
        """Without an existential attribute there is nothing to move:
        a relational plan computes no stage estimate under any policy,
        and its orders are the ones the estimates left unchanged."""
        from repro.engine import planner

        calls = []
        original = planner._extension_bound

        def spy(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(planner, "_extension_bound", spy)
        query = MultiModelQuery([
            Relation("R", ("a", "b"), [(i, i % 13) for i in range(40)]),
            Relation("S", ("b", "c"), [(i, i % 7) for i in range(0, 40, 2)]),
            Relation("T", ("c", "d"), [(i % 7, i % 2) for i in range(50)])])
        orders = {policy: plan_query(query, order=policy).order
                  for policy in ("appearance", "domain", "connected")}
        assert orders == {"appearance": ("a", "b", "c", "d"),
                          "domain": ("d", "c", "b", "a"),
                          "connected": ("d", "c", "b", "a")}
        assert plan_query(query).order == ("d", "c", "b", "a")
        assert calls == []

    def test_dblp_still_tests_its_article_last(self):
        from repro.data.dblp import dblp_document, dblp_query

        query = dblp_query(dblp_document(300))
        assert plan_query(query, order="connected").order == \
            ("j", "y", "era", "a")

    def test_an_explicit_order_is_obeyed(self):
        from repro.data.dblp import dblp_document, dblp_query

        query = dblp_query(dblp_document(300))
        given = ("a", "j", "y", "era")
        plan = plan_query(query, order=given)
        assert plan.order == given and plan.tested is None
        for policy in ("appearance", "domain", "connected", "bound"):
            assert plan_query(query, order=policy).order[-1] == "a"
            assert run_query(query, order=policy) == run_query(
                query, order=given)
