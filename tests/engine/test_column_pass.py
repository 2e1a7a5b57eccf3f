"""One cold pass per relation version: the planner's statistics, the
local dictionaries and the code columns every trie of the relation is
built from (:func:`repro.engine.encoded.relation_columns`)."""

import random

import pytest

from repro.core.multimodel import MultiModelQuery
from repro.engine.dictionary import Dictionary
from repro.engine.encoded import (
    EncodedInstance,
    relation_columns,
    relation_input,
)
from repro.engine.planner import (
    cached_relation_stats,
    plan_query,
    relation_artefacts,
    run_query,
)
from repro.relational.relation import Relation
from repro.relational.statistics import relation_stats

#: Mixed values; ``1``, ``1.0`` and ``True`` are one value, as are ``0``,
#: ``0.0`` and ``False``.
MIXED = [0, 1, 2, -3, 1.0, 0.0, 2.5, -0.5, True, False, "", "a", "b",
         "ab", None]


def random_relation(rng: random.Random, arity: int, rows: int) -> Relation:
    return Relation("R", tuple("abcd"[:arity]),
                    [tuple(rng.choice(MIXED) for _ in range(arity))
                     for _ in range(rows)])


def descend_all(trie):
    """Every (level, node) of *trie*, top-down."""
    nodes = [(0, trie.root)]
    for level, node in nodes:
        if level + 1 < trie.depth:
            nodes += [(level + 1, child) for child in node.children.values()]
    return nodes


class TestStatisticsAreAViewOfThePass:
    @pytest.mark.parametrize("seed", range(25))
    def test_equal_to_the_rescan_on_mixed_values(self, seed):
        rng = random.Random(seed)
        relation = random_relation(rng, rng.randint(1, 4),
                                   rng.randint(0, 40))
        assert cached_relation_stats(relation) == relation_stats(relation)

    def test_one_value_for_equal_numbers_of_any_type(self):
        relation = Relation("R", ("a", "b"),
                            [(1, "x"), (1.0, "y"), (True, "z"), (0, "x")])
        stats = cached_relation_stats(relation)
        assert stats == relation_stats(relation)
        assert stats.columns["a"].distinct == 2
        assert stats.columns["a"].max_frequency == 3

    @pytest.mark.parametrize("relation", [
        Relation("E", ("a", "b")),
        Relation("TRUE", (), [()]),
        Relation("FALSE", ()),
    ], ids=["empty", "zero-arity {()}", "zero-arity empty"])
    def test_edge_relations(self, relation):
        assert cached_relation_stats(relation) == relation_stats(relation)

    def test_stats_read_the_dictionaries_the_tries_use(self):
        relation = Relation("R", ("a", "b"), [(3, "x"), (1, "x"), (2, "y")])
        stats = cached_relation_stats(relation)
        artefact, built = relation_input(relation, ("b", "a"))
        assert built
        b, a = artefact.dictionaries
        assert (a.values[0], a.values[-1]) == (stats.columns["a"].minimum,
                                               stats.columns["a"].maximum)
        assert len(b) == stats.columns["b"].distinct
        assert relation_artefacts(relation)[("dictionaries",)] == {
            "a": a, "b": b}


class TestOnePass:
    @staticmethod
    def triangle():
        """A triangle whose binders of an attribute share one domain, so
        assembling it merges no dictionaries."""
        edges = [(i, j) for i in range(6) for j in range(6) if i != j]
        return MultiModelQuery([Relation("R", ("a", "b"), edges),
                                Relation("S", ("b", "c"), edges),
                                Relation("T", ("a", "c"), edges)])

    def test_plan_then_two_orders_build_each_dictionary_once(
            self, monkeypatch):
        built = []
        original = Dictionary.__init__

        def counting(self, attribute, domain):
            built.append(attribute)
            original(self, attribute, domain)

        monkeypatch.setattr(Dictionary, "__init__", counting)
        query = self.triangle()
        plan_query(query)
        # The statistics ran the pass: one dictionary per column.
        assert sorted(built) == ["a", "a", "b", "b", "c", "c"]
        passes = [relation_artefacts(r)["columns"] for r in query.relations]
        forward = run_query(query, order=("a", "b", "c"))
        backward = run_query(query, order=("c", "b", "a"))
        assert forward == backward and len(forward) == 6 * 5 * 4
        assert len(built) == 6
        assert [relation_artefacts(r)["columns"]
                for r in query.relations] == passes
        assert all(p is q for p, q in zip(
            passes, [relation_columns(r) for r in query.relations]))

    def test_each_version_starts_without_artefacts(self):
        """Artefacts are made on first use and never carried over: a
        new relation object runs its own cold pass."""
        relation = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        assert relation.artefacts is None
        stats = cached_relation_stats(relation)
        assert relation.artefacts is relation_artefacts(relation)
        assert relation.artefacts["stats"] is stats
        for successor in (relation.with_row_changes(added=[(5, 6)]),
                          relation.with_name("S")):
            assert successor.artefacts is None
            assert cached_relation_stats(successor) \
                == relation_stats(successor)

    def test_the_code_columns_are_row_aligned(self):
        relation = Relation("R", ("a", "b"), [(5, "x"), (7, "y"), (5, "y")])
        columns = relation_columns(relation)
        rows = {tuple(dictionary.decode(code) for dictionary, code
                      in zip((columns["a"][0], columns["b"][0]), codes))
                for codes in zip(columns["a"][1], columns["b"][1])}
        assert rows == set(relation.rows)
        assert [columns[a][2] for a in "ab"] == [2, 2]


class TestChildrenKeysAreTheDictionarysInts:
    """Children maps are keyed by the dictionary's own int objects: a
    fresh int per key makes every key-view meet compare by value."""

    @staticmethod
    def assert_shared(trie, dictionaries):
        for level, node in descend_all(trie):
            codes = dictionaries[level].codes
            values = dictionaries[level].values
            for key in node.children:
                assert key is codes[values[key]]

    def test_relation_trie_under_every_column_order(self):
        rng = random.Random(7)
        relation = Relation("R", ("a", "b", "c"),
                            {(rng.randrange(700), rng.randrange(300),
                              rng.randrange(900)) for _ in range(2000)})
        for order in (("a", "b", "c"), ("c", "a", "b"), ("b", "c", "a")):
            artefact, _built = relation_input(relation, order)
            self.assert_shared(artefact.trie, artefact.dictionaries)

    def test_assembly_runs_the_cached_tries_as_they_stand(self):
        edges = {(i, (i * 7) % 500) for i in range(500)}
        relations = [Relation("R", ("a", "b"), edges),
                     Relation("S", ("b", "a"), edges)]
        instance = EncodedInstance.from_relations(relations, ("a", "b"))
        for relation, trie in zip(relations, instance.tries):
            artefact, built = relation_input(relation, ("a", "b"))
            assert not built and trie is artefact.trie
            self.assert_shared(trie, artefact.dictionaries)
