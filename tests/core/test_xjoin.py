"""Tests for XJoin (Algorithm 1) and the baseline — the paper's core claims.

Checked here:
* XJoin == baseline == naive oracle on the paper's instances and on random
  multi-model instances (correctness);
* Lemma 3.5: XJoin's max intermediate size never exceeds the combined AGM
  bound, for any expansion order and any mode;
* Example 3.4 / Figure 3: the baseline's intermediates reach n^5 while
  XJoin's stay within n^2.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pushdown_harness import relaxed_then_naive

from repro.core.baseline import baseline_join, relational_subquery, twig_subquery
from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.core.xjoin import xjoin
from repro.data.random_instances import random_multimodel_instance
from repro.data.scenarios import bookstore_instance, figure1_query
from repro.data.synthetic import example33_instance, example34_instance
from repro.errors import PlanError, QueryError
from repro.instrumentation import JoinStats
from repro.relational.relation import Relation
from repro.xml.model import XMLDocument, element
from repro.xml.twig_parser import parse_twig


class TestFigure1:
    def test_xjoin_answer(self):
        query = figure1_query()
        out = xjoin(query).project(["userID", "ISBN", "price"])
        assert set(out) == {("jack", "978-3-16-1", 30),
                            ("tom", "634-3-12-2", 20)}

    def test_baseline_agrees(self):
        query = figure1_query()
        assert baseline_join(query) == xjoin(query)

    def test_naive_agrees(self):
        query = figure1_query()
        assert query.naive_join() == xjoin(query)

    def test_dangling_relational_orders_dropped(self):
        query = figure1_query()
        out = xjoin(query)
        assert "bob" not in {row[out.schema.index("userID")] for row in out}


class TestExamplePaperInstances:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_example34_result_size_is_n(self, n):
        instance = example34_instance(n)
        assert len(xjoin(instance.query)) == n

    @pytest.mark.parametrize("n", [2, 3])
    def test_example34_all_evaluators_agree(self, n):
        instance = example34_instance(n)
        naive = instance.query.naive_join()
        assert xjoin(instance.query) == naive
        assert baseline_join(instance.query) == naive

    @pytest.mark.parametrize("n", [2, 3])
    def test_example33_all_evaluators_agree(self, n):
        instance = example33_instance(n)
        naive = instance.query.naive_join()
        assert xjoin(instance.query) == naive
        assert baseline_join(instance.query) == naive

    def test_twig_only_matches_are_n5(self):
        instance = example34_instance(2)
        twig_only = MultiModelQuery(
            [], [TwigBinding(instance.twig, instance.document)], name="Q2")
        assert len(xjoin(twig_only)) == 2 ** 5

    @pytest.mark.parametrize("policy",
                             [None, "appearance", "domain", "connected"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lemma35_on_example34(self, n, policy):
        """XJoin intermediates <= the combined bound (here n^2) under the
        default order and every order policy; the baseline's reach n^5."""
        instance = example34_instance(n)
        bound = instance.query.size_bound().bound_ceiling
        xstats = JoinStats()
        xjoin(instance.query, policy, stats=xstats)
        assert xstats.max_intermediate <= bound
        bstats = JoinStats()
        baseline_join(instance.query, stats=bstats)
        assert bstats.max_intermediate >= n ** 5

    def test_figure3_shape_baseline_worse(self):
        """Both metrics of Figure 3: time and intermediate ratio > 1."""
        instance = example34_instance(6)
        xstats, bstats = JoinStats(), JoinStats()
        # XJoin takes 0.2 ms here, the baseline 11: a full collection
        # of the suite's heap (80 ms) due inside the former is not its
        # time. One now, and none is due for either call.
        gc.collect()
        xjoin(instance.query, stats=xstats)
        baseline_join(instance.query, stats=bstats)
        assert bstats.max_intermediate > 10 * xstats.max_intermediate
        assert bstats.wall_time > xstats.wall_time


class TestXJoinModes:
    def make_instance(self):
        return example34_instance(3)

    def test_explicit_order(self):
        instance = self.make_instance()
        order = tuple(reversed(instance.query.attributes))
        assert xjoin(instance.query, order) == xjoin(instance.query)

    def test_policy_orders(self):
        instance = self.make_instance()
        reference = xjoin(instance.query)
        for policy in ("appearance", "domain", "connected"):
            assert xjoin(instance.query, policy) == reference

    def test_bad_order_raises(self):
        instance = self.make_instance()
        with pytest.raises(PlanError):
            xjoin(instance.query, ("A", "B"))
        with pytest.raises(PlanError):
            xjoin(instance.query, "no_such_policy")

    def test_pushdown_equals_filtered_relaxed_join(self):
        """The default path (pair inputs + early validation) against the
        relaxed join post-filtered by the naive matcher."""
        instance = self.make_instance()
        assert xjoin(instance.query) == relaxed_then_naive(instance.query)

    def test_pushdown_equals_filtered_relaxed_join_any_policy(self):
        instance = self.make_instance()
        reference = relaxed_then_naive(instance.query)
        for policy in ("appearance", "domain", "connected"):
            assert xjoin(instance.query, policy) == reference

    def test_removed_mode_keywords_are_gone(self):
        instance = self.make_instance()
        with pytest.raises(TypeError):
            xjoin(instance.query, ad_prefilter=True)
        with pytest.raises(TypeError):
            xjoin(instance.query, partial_validation=True)

    def test_skipping_validation_relaxes(self):
        """Without the final structure filter the result is a superset."""
        tree = element(
            "r",
            element("x", element("y", text="1")),
            element("x", element("y", text="2")),
        )
        doc = XMLDocument(tree)
        # Twig r(//x(/y)) decomposes into paths (r) and (x, y); requiring
        # x below r always holds, so craft a case via two twig branches.
        twig = parse_twig("x(/y)")
        query = MultiModelQuery([], [TwigBinding(twig, doc)])
        strict = xjoin(query)
        relaxed = xjoin(query, validate_structure=False)
        assert strict.rows <= relaxed.rows

    @pytest.mark.parametrize("n", [1, 40])
    def test_validation_actually_filters(self, n):
        """A-D edge between branches: the value join alone overcounts,
        and only the pushed-down pair input keeps the stages linear."""
        # Document: n 'a' nodes, each with its own 'b' descendant one
        # level down, plus one 'a' without any.
        root = element("r")
        for i in range(n):
            root.append(element("a", element("m", element("b", text=str(i))),
                                text=str(i)))
        root.append(element("a", text=str(n)))
        doc = XMLDocument(root)
        twig = parse_twig("a(//b)")
        query = MultiModelQuery([], [TwigBinding(twig, doc)])
        strict_stats, relaxed_stats = JoinStats(), JoinStats()
        strict = xjoin(query, stats=strict_stats)
        relaxed = xjoin(query, stats=relaxed_stats, validate_structure=False)
        # relaxed pairs every a with every b (cartesian of singleton paths).
        assert len(relaxed) == (n + 1) * n
        assert set(strict) == {(i, i) for i in range(n)}
        assert strict_stats.max_intermediate <= n + 1
        assert relaxed_stats.max_intermediate >= n * n


class TestQueryValidation:
    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            MultiModelQuery()

    def test_duplicate_input_names_rejected(self):
        r = Relation("R", ("a",), [(1,)])
        with pytest.raises(QueryError):
            MultiModelQuery([r, r.with_name("R")])

    def test_relational_only_query(self):
        r = Relation("R", ("a", "b"), [(1, 2), (2, 3)])
        s = Relation("S", ("b", "c"), [(2, 4)])
        query = MultiModelQuery([r, s])
        assert set(xjoin(query)) == {(1, 2, 4)}
        assert baseline_join(query) == xjoin(query)

    def test_twig_only_query(self):
        doc = XMLDocument(element("r", element("x", text="7")))
        query = MultiModelQuery([], [TwigBinding(parse_twig("x"), doc)])
        assert set(xjoin(query)) == {(7,)}
        assert baseline_join(query) == xjoin(query)

    def test_empty_relation_empty_result(self):
        r = Relation("R", ("a",))
        doc = XMLDocument(element("r", element("a", text="1")))
        # Note: relational attribute 'a' joins with twig node 'a'.
        query = MultiModelQuery(
            [r], [TwigBinding(parse_twig("a"), doc)])
        assert len(xjoin(query)) == 0
        assert len(baseline_join(query)) == 0

    def test_disconnected_models_cartesian(self):
        r = Relation("R", ("u",), [(1,), (2,)])
        doc = XMLDocument(element("r", element("x", text="5")))
        query = MultiModelQuery([r], [TwigBinding(parse_twig("x"), doc)])
        assert len(xjoin(query)) == 2
        assert baseline_join(query) == xjoin(query)


class TestBaselinePieces:
    def test_relational_subquery(self):
        instance = example33_instance(3)
        q1 = relational_subquery(instance.query)
        assert len(q1) == 9  # R1(B,D) x R2(F,G,H) share nothing: 3*3

    def test_twig_subquery_size(self):
        instance = example33_instance(2)
        q2 = twig_subquery(instance.query)
        assert len(q2) == 2 ** 5


class TestBookstore:
    def test_scaled_instance_consistency(self):
        query = bookstore_instance(30, 10, seed=3)
        naive = query.naive_join()
        assert xjoin(query) == naive
        assert baseline_join(query) == naive

    def test_match_fraction_zero_empty_result(self):
        query = bookstore_instance(10, 5, match_fraction=0.0, seed=1)
        assert len(xjoin(query)) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_xjoin_baseline_naive_agree_on_random_instances(seed):
    """The headline correctness property on random multi-model queries."""
    query = random_multimodel_instance(seed)
    naive = query.naive_join()
    assert xjoin(query) == naive
    assert baseline_join(query) == naive


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_pushdown_equals_filtered_relaxed_join_on_random_instances(seed):
    query = random_multimodel_instance(seed)
    reference = relaxed_then_naive(query)
    assert xjoin(query) == reference
    assert xjoin(query, "domain") == reference
    assert xjoin(query, "connected") == reference


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lemma35_on_random_instances(seed):
    """Lemma 3.5: intermediates <= AGM bound of the combined hypergraph,
    at every stage, for every order policy."""
    query = random_multimodel_instance(seed)
    bound = query.size_bound().bound_ceiling
    for policy in ("appearance", "domain", "connected"):
        stats = JoinStats()
        xjoin(query, policy, stats=stats)
        assert stats.max_intermediate <= bound, (
            f"stage sizes {stats.stage_sizes()} exceed bound {bound} "
            f"under policy {policy}")
