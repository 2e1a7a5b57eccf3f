"""Cross-engine result equality over shared encoded instances.

The acceptance property of the engine refactor: all four registered
algorithms produce equal *decoded* results on the paper's scenarios —
generic join vs leapfrog on relational instances (one shared
EncodedInstance), and xjoin vs baseline vs the naive oracle on the
Figure 1 / Example 3.3 / Example 3.4 multi-model instances.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import baseline_join
from repro.core.multimodel import MultiModelQuery
from repro.data.random_instances import random_multimodel_instance
from repro.data.scenarios import figure1_query
from repro.data.synthetic import (
    agm_tight_triangle,
    example33_instance,
    example34_instance,
)
from repro.engine import (
    EncodedInstance,
    EncodedTrie,
    available_algorithms,
    get_algorithm,
    run_query,
)
from repro.errors import EngineError
from repro.instrumentation import JoinStats
from repro.relational.operators import naive_multiway_join
from repro.relational.relation import Relation


class TestEncodedTrie:
    def test_round_trip(self):
        trie = EncodedTrie("T", ("a", "b"), [(1, 2), (0, 5), (1, 0)])
        assert list(trie.tuples()) == [(0, 5), (1, 0), (1, 2)]
        assert trie.size == 3

    def test_keys_sorted_per_node(self):
        trie = EncodedTrie("T", ("a", "b"), [(2, 1), (0, 3), (2, 0)])
        assert list(trie.root.keys) == [0, 2]
        assert list(trie.root.children[2].keys) == [0, 1]

    def test_instance_trie_decodes_back_to_relation(self):
        r = Relation("R", ("a", "b"), [(1, "x"), (2, "y"), (1, "z")])
        instance = EncodedInstance.from_relations([r])
        trie = instance.tries[0]
        decoded = {instance.decode_row(codes) for codes in trie.tuples()}
        assert decoded == set(r.rows)


class TestRegistry:
    def test_the_three_operators_are_registered(self):
        """The baseline foil is ``baseline_join``, not an operator."""
        assert available_algorithms() == ["generic_join", "leapfrog",
                                          "xjoin"]
        with pytest.raises(EngineError):
            get_algorithm("baseline")

    def test_unknown_algorithm_raises(self):
        with pytest.raises(EngineError):
            get_algorithm("nested_loop_prayer")

    def test_xjoin_requires_query_instance(self):
        instance = EncodedInstance.from_relations(
            [Relation("R", ("a",), [(1,)])])
        with pytest.raises(EngineError):
            get_algorithm("xjoin").run(instance)

    @pytest.mark.parametrize("algorithm", ["generic_join", "leapfrog"])
    def test_relational_kernels_reject_twig_instances(self, algorithm):
        """The value-join kernels skip twig structure validation, so
        running them on a twig-bearing instance must fail loudly rather
        than return unvalidated tuples."""
        query = example34_instance(2).query
        instance = EncodedInstance.from_query(query, query.attributes)
        with pytest.raises(EngineError):
            get_algorithm(algorithm).run(instance)
        with pytest.raises(EngineError):
            run_query(query, algorithm=algorithm)

    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_every_operator_answers_as_the_foil(self, algorithm):
        """Each registered operator agrees with ``baseline_join`` on a
        twig-free query, the empty-result case included."""
        relations = agm_tight_triangle(12)
        query = MultiModelQuery(relations, name="triangle")
        assert run_query(query, algorithm=algorithm) == \
            baseline_join(query)
        emptied = MultiModelQuery(
            relations[:2] + [Relation("T", ("a", "c"), [])], name="empty")
        result = run_query(emptied, algorithm=algorithm)
        assert result == baseline_join(emptied)
        assert len(result) == 0

    @pytest.mark.parametrize("algorithm", ["generic_join", "leapfrog"])
    def test_relational_instances_from_query_still_run(self, algorithm):
        """A twig-free MultiModelQuery through from_query stays valid
        input for the relational kernels."""
        r = Relation("R", ("a", "b"), [(1, 2), (2, 2)])
        query = MultiModelQuery([r], name="rel")
        instance = EncodedInstance.from_query(query, query.attributes)
        result = get_algorithm(algorithm).run(instance)
        assert set(result) == set(r.rows)


class TestRelationalCrossEngine:
    def test_shared_instance_triangle(self):
        """One encoded instance, two relational operators, equal output;
        both keep every stage linear in n where binary plans are n^2."""
        relations = agm_tight_triangle(25)
        instance = EncodedInstance.from_relations(relations,
                                                  ("a", "b", "c"))
        gj_stats, lftj_stats = JoinStats(), JoinStats()
        gj = get_algorithm("generic_join").run(instance, stats=gj_stats)
        lftj = get_algorithm("leapfrog").run(instance, stats=lftj_stats)
        expected = naive_multiway_join(relations).project(["a", "b", "c"])
        assert gj == lftj == expected
        assert gj_stats.max_intermediate <= 4 * 25
        assert lftj_stats.max_intermediate <= 4 * 25

    def test_mixed_type_domains(self):
        r = Relation("R", ("a", "b"), [(1, "x"), ("one", "x"), (2.5, "y")])
        s = Relation("S", ("b", "c"), [("x", True), ("y", None)])
        instance = EncodedInstance.from_relations([r, s])
        gj = get_algorithm("generic_join").run(instance)
        lftj = get_algorithm("leapfrog").run(instance)
        expected = naive_multiway_join([r, s]).project(["a", "b", "c"])
        assert gj == lftj == expected


SCENARIOS = {
    "figure1": lambda: figure1_query(),
    "example33": lambda: example33_instance(3).query,
    "example34": lambda: example34_instance(3).query,
}


class TestMultiModelCrossEngine:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_xjoin_equals_baseline_on_shared_instance(self, scenario):
        query = SCENARIOS[scenario]()
        instance = EncodedInstance.from_query(query, query.attributes)
        xj = get_algorithm("xjoin").run(instance)
        base = baseline_join(query)
        naive = query.naive_join()
        assert xj == naive
        assert base.project(query.attributes) == naive

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_planner_run_query_agrees(self, scenario):
        query = SCENARIOS[scenario]()
        assert run_query(query) == query.naive_join()

    def test_explicit_algorithm_override(self):
        query = figure1_query()
        assert baseline_join(query) == run_query(query, algorithm="xjoin")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_run_query_matches_naive_on_random_instances(seed):
    query = random_multimodel_instance(seed)
    assert run_query(query) == query.naive_join()


class TestParallelCrossEngine:
    """The parallel executor joins the cross-engine parity contract:
    every registered algorithm, same answers, now across workers too
    (the full matrix lives in ``tests/parallel/test_parallel_parity``).
    """

    def test_parallel_kernels_on_shared_instance(self):
        from repro.parallel.executor import ParallelExecutor

        instance = EncodedInstance.from_relations(
            agm_tight_triangle(30), ("a", "b", "c"))
        executor = ParallelExecutor(2)
        reference = get_algorithm("generic_join").run(instance)
        for algorithm in ("generic_join", "leapfrog"):
            assert executor.run_join(instance, algorithm) == reference

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_run_query_workers_agrees(self, scenario):
        query = SCENARIOS[scenario]()
        assert run_query(query, workers=2) == query.naive_join()
