"""Partition-boundary behavior: slicing, weights, skew, empty ranges."""

import random
from collections import Counter

import pytest

from repro.data.synthetic import agm_tight_triangle
from repro.engine.encoded import EncodedInstance, EncodedTrie, relation_input
from repro.engine.interface import get_algorithm
from repro.parallel import partition
from repro.parallel.executor import ParallelExecutor
from repro.parallel.partition import (
    choose_morsel_count,
    code_slices,
    posting_slices,
    top_level_weights,
)
from repro.parallel.slicing import sliced_instance, sliced_trie
from repro.relational.relation import Relation
from repro.xml.columnar import columnar
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_document


def triangle_instance(n=40):
    return EncodedInstance.from_relations(agm_tight_triangle(n),
                                          ("a", "b", "c"))


class TestWeights:
    def test_weights_count_rows_exactly(self):
        r = Relation("R", ("a", "b"), [(0, 1), (0, 2), (0, 3), (5, 1)])
        instance = EncodedInstance.from_relations([r])
        weights = top_level_weights(instance)
        # code(0) holds 3 rows, code(5) holds 1.
        by_value = {instance.decode_value(0, code): count
                    for code, count in weights.items()}
        assert by_value == {0: 3, 5: 1}

    def test_weights_sum_over_level0_tries(self):
        relations = agm_tight_triangle(10)
        instance = EncodedInstance.from_relations(relations,
                                                  ("a", "b", "c"))
        weights = top_level_weights(instance)
        # R(a,b) and T(a,c) bind level 0; S(b,c) does not.
        total = sum(weights.values())
        assert total == len(relations[0]) + len(relations[2])

    def test_zero_depth_instance_has_no_weights(self):
        r = Relation("R", (), [()])
        instance = EncodedInstance.from_relations([r])
        assert top_level_weights(instance) == {}
        assert code_slices(instance, 4) == []


def walked_weights(instance):
    """Rows per top-level code, counted from the level-0 tries' rows."""
    weights = Counter()
    for index in instance.participation[0]:
        weights.update(row[0] for row in instance.tries[index].tuples())
    return dict(weights)


def random_relations(seed):
    """Two inputs binding ``a`` over different domains (so assembly
    re-keys both tries) and one that does not bind it."""
    rng = random.Random(seed)

    def rows(lo, hi):
        return {(rng.randrange(lo, hi), rng.randrange(12))
                for _ in range(rng.randrange(1, 60))}

    return [Relation("R", ("a", "b"), rows(0, 20)),
            Relation("T", ("a", "c"), rows(8, 30)),
            Relation("S", ("b", "c"), rows(0, 12))]


class TestCachedWeights:
    @pytest.mark.parametrize("seed", range(8))
    def test_weights_equal_the_walk(self, seed):
        relations = random_relations(seed)
        order = ("a", "b", "c")
        instance = EncodedInstance.from_relations(relations, order)
        cached = relation_input(relations[0], order)[0].trie
        assert instance.tries[0] is not cached  # a re-keyed copy
        # Slices first (weighed before and after their parent), then
        # the whole instance, whose frozen tries keep their maps.
        codes = sorted(walked_weights(instance))
        cuts = sorted({0, codes[len(codes) // 3], codes[-1] + 1})
        for detach in (False, True, False):
            for lo, hi in zip(cuts, cuts[1:]):
                view = sliced_instance(instance, lo, hi, detach=detach)
                assert top_level_weights(view) == walked_weights(view)
            assert top_level_weights(instance) == walked_weights(instance)
        assert all(instance.tries[i]._weights is not None
                   for i in instance.participation[0])

    def test_a_second_run_join_walks_no_trie(self, monkeypatch):
        calls = Counter()
        walk = partition._subtree_rows

        def counted(node):
            calls["walk"] += 1
            return walk(node)

        monkeypatch.setattr(partition, "_subtree_rows", counted)
        relations = agm_tight_triangle(30)
        executor = ParallelExecutor(2, transport="serial")
        first = executor.run_join(EncodedInstance.from_relations(relations))
        assert calls["walk"] > 0
        calls.clear()
        again = executor.run_join(EncodedInstance.from_relations(relations))
        assert calls["walk"] == 0 and again == first

    def test_a_trie_built_from_rows_keeps_its_weights(self):
        rows = [(0, 1), (0, 2), (3, 1), (3, 2), (5, 0)]
        trie = EncodedTrie("R", ("a", "b"), rows)
        instance = EncodedInstance("R", ("a", "b"), {}, [trie])
        assert top_level_weights(instance) == {0: 2, 3: 2, 5: 1}
        assert trie._weights == {0: 2, 3: 2, 5: 1}


class TestCodeSlices:
    def test_slices_cover_and_are_disjoint(self):
        instance = triangle_instance(50)
        weights = top_level_weights(instance)
        slices = code_slices(instance, 7)
        assert 1 <= len(slices) <= 7
        assert slices[0].lo == min(weights)
        assert slices[-1].hi == max(weights) + 1
        for left, right in zip(slices, slices[1:]):
            assert left.hi == right.lo  # contiguous, half-open
        # Every key falls in exactly one slice.
        for code in weights:
            owners = [s for s in slices if s.lo <= code < s.hi]
            assert len(owners) == 1

    def test_single_code_domain_collapses_to_one_slice(self):
        r = Relation("R", ("a", "b"), [(7, i) for i in range(10)])
        instance = EncodedInstance.from_relations([r])
        slices = code_slices(instance, 8)
        assert len(slices) == 1
        assert slices[0].weight == 10

    def test_morsel_count_never_exceeds_domain(self):
        instance = triangle_instance(3)
        assert len(code_slices(instance, 64)) <= \
            len(top_level_weights(instance))

    def test_skewed_domain_isolates_heavy_key(self):
        # One top-level value holds > 90% of the tuples.
        rows = [(0, j) for j in range(95)] + [(i, 0) for i in range(1, 6)]
        r = Relation("R", ("a", "b"), rows)
        instance = EncodedInstance.from_relations([r])
        slices = code_slices(instance, 4)
        heavy = [s for s in slices if s.lo <= 0 < s.hi]
        assert len(heavy) == 1
        # The heavy key gets its own morsel; the light tail is spread
        # over the remaining slices, not glued to the heavy one.
        assert heavy[0].weight == 95
        assert heavy[0].hi == 1
        assert sum(s.weight for s in slices) == 100


class TestSlicedViews:
    def test_sliced_trie_restricts_keys_only(self):
        instance = triangle_instance(10)
        trie = instance.tries[0]
        lo, hi = trie.root.keys[2], trie.root.keys[5]
        view = sliced_trie(trie, lo, hi)
        assert list(view.root.keys) == [k for k in trie.root.keys
                                        if lo <= k < hi]
        assert view.root.children is trie.root.children  # shared

    def test_detached_slice_is_self_contained(self):
        instance = triangle_instance(10)
        trie = instance.tries[0]
        lo, hi = trie.root.keys[1], trie.root.keys[3]
        view = sliced_trie(trie, lo, hi, detach=True)
        assert set(view.root.children) == set(view.root.keys)

    def test_empty_slice_yields_empty_result(self):
        instance = triangle_instance(10)
        top = max(max(t.root.keys) for t in instance.tries)
        empty = sliced_instance(instance, top + 10, top + 20)
        for algorithm in ("generic_join", "leapfrog"):
            assert len(get_algorithm(algorithm).run(empty)) == 0

    def test_union_of_slices_equals_serial(self):
        instance = triangle_instance(30)
        serial = get_algorithm("generic_join").run(instance)
        rows = set()
        for piece in code_slices(instance, 5):
            part = get_algorithm("generic_join").run(
                sliced_instance(instance, piece.lo, piece.hi))
            assert rows.isdisjoint(part.rows)  # slices never overlap
            rows |= part.rows
        assert rows == serial.rows


class TestPostingSlices:
    def test_cover_and_region(self):
        document = xmark_document(1.0, seed=7)
        view = columnar(document)
        twig = parse_twig("p=person(/nm=name)")
        posting = view.stream(twig.nodes()[0])
        slices = posting_slices(posting, 4)
        assert sum(s.weight for s in slices) >= len(posting.nids)
        covered = 0
        for piece in slices:
            members = [i for i in range(len(posting.nids))
                       if piece.lo <= posting.starts[i] < piece.hi]
            covered += len(members)
            assert members, "no empty posting slices"
            assert piece.region_hi == max(posting.ends[i]
                                          for i in members)
        assert covered == len(posting.nids)

    def test_absent_tag_has_no_slices(self):
        document = xmark_document(0.5, seed=7)
        view = columnar(document)
        twig = parse_twig("z=zeppelin")
        assert posting_slices(view.stream(twig.nodes()[0]), 4) == []


class TestSizing:
    @pytest.mark.parametrize("workers,domain,expected", [
        (0, 100, 1), (1, 100, 1), (4, 0, 1), (4, 1, 1),
        (4, 100, 16), (4, 6, 6), (2, 3, 3),
    ])
    def test_choose_morsel_count(self, workers, domain, expected):
        assert choose_morsel_count(workers, domain) == expected
