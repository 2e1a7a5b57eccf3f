"""Encoded inputs: cached per input version, assembled by translation.

The encoded form of an input (local dictionaries + trie) is built once
per input version and shared by every instance over it; an instance is
an assembly that merges the local dictionaries and re-keys a trie only
where its domain differs from the union. These tests pin down reuse,
sharing across global orders, the translation path against a
from-scratch encode of fresh inputs, invalidation by the update layer,
lifetime without the cycle collector, and the shared leaf of :class:`~repro.engine.encoded.EncodedTrie`.
"""

import gc
import operator
import random
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import twig_input
from repro.core.multimodel import MultiModelQuery, TwigBinding, \
    _decomposition
from repro.data.random_instances import random_multimodel_instance
from repro.data.synthetic import example34_instance
from repro.engine import (
    EncodedInstance,
    EncodedTrie,
    available_algorithms,
    get_algorithm,
    run_query,
)
from repro.engine.dictionary import Dictionary
from repro.engine.encoded import _LEAF, relation_artefacts, \
    relation_columns, relation_input
from repro.errors import TransportError
from repro.instrumentation import JoinStats
from repro.parallel.executor import ParallelExecutor
from repro.parallel.slicing import sliced_instance
from repro.relational.operators import naive_multiway_join
from repro.relational.relation import Relation
from repro.updates.session import QuerySession
from repro.xml.columnar import columnar
from repro.xml.model import XMLDocument, element
from repro.xml.twig import TwigNode, TwigQuery
from repro.xml.twig_parser import parse_twig


def triangle(n=40, seed=3, per_node=4):
    rng = random.Random(seed)

    def edges():
        return {(rng.randrange(n), rng.randrange(n))
                for _ in range(per_node * n)}

    return MultiModelQuery([Relation("R", ("a", "b"), edges()),
                            Relation("S", ("b", "c"), edges()),
                            Relation("T", ("a", "c"), edges())],
                           name="triangle")


def fresh(relation):
    """Equal content, new identity: what a cold encode is made from."""
    return Relation(relation.name, relation.schema, relation.rows)


def library():
    return XMLDocument(element(
        "lib",
        element("book", element("title", text="a"),
                element("year", text="1999")),
        element("book", element("title", text="b"),
                element("year", text="2001")),
        element("book", element("title", text="a"),
                element("year", text="2001"))))


def bookstore_query():
    """R(x, y) joined with ``b=book(/t=title, /y=year)``."""
    relation = Relation("R", ("x", "y"), [(1, 1999), (2, 2001), (3, 1850)])
    twig = parse_twig("b=book(/t=title, /y=year)")
    return MultiModelQuery([relation], [TwigBinding(twig, library())],
                           name="books")


class Probe:
    """Planted in a view's ``derived``: dies when that dict does."""


def planted(view):
    probe = view.derived["probe"] = Probe()
    return weakref.ref(probe)


def planted_on(relation):
    """A probe in *relation*'s artefact dict: dies when that dict does."""
    probe = relation_artefacts(relation)["probe"] = Probe()
    return weakref.ref(probe)


def relation_dictionaries(relation):
    """*relation*'s column dictionaries in schema order (its column
    pass, run here if nothing has read this version yet)."""
    return tuple(column[0] for column in relation_columns(relation).values())


def same_objects(left, right):
    return len(left) == len(right) and all(map(operator.is_, left, right))


def decoded(instance):
    """Each trie's rows as value tuples over its own column order."""
    out = {}
    for trie in instance.tries:
        levels = [instance.order.index(a) for a in trie.order]
        out[trie.name, trie.order] = [
            tuple(instance.decode_value(level, code)
                  for level, code in zip(levels, codes))
            for codes in trie.tuples()]
    return out


# -- (a) reuse -------------------------------------------------------------

class TestReuse:
    @pytest.mark.parametrize("algorithm", ["generic_join", "leapfrog"])
    def test_second_relational_query_builds_nothing(self, algorithm):
        query = triangle()
        first, second = JoinStats(), JoinStats()
        cold = run_query(query, algorithm=algorithm, stats=first)
        warm = run_query(query, algorithm=algorithm, stats=second)
        assert (first.inputs_built, first.inputs_reused) == (3, 0)
        assert (second.inputs_built, second.inputs_reused) == (0, 3)
        assert second.inputs == {"R": [0, 1], "S": [0, 1], "T": [0, 1]}
        assert cold == warm == query.naive_join()
        assert "encode" in second.phase_times

    def test_second_xjoin_builds_nothing(self):
        query = example34_instance(4).query
        first, second = JoinStats(), JoinStats()
        cold = run_query(query, stats=first)
        warm = run_query(query, stats=second)
        assert first.inputs_built == len(first.inputs) > 0
        assert second.inputs_built == 0
        assert second.inputs_reused == first.inputs_built
        assert cold == warm == query.naive_join()

    def test_second_parallel_query_builds_nothing(self):
        query = triangle(n=120)
        first, second = JoinStats(), JoinStats()
        cold = run_query(query, workers=2, stats=first)
        warm = run_query(query, workers=2, stats=second)
        assert (first.inputs_built, second.inputs_built) == (3, 0)
        assert second.inputs_reused == 3
        assert cold == warm == run_query(query)

    def test_absorb_merges_the_input_counters(self):
        stats = JoinStats()
        stats.absorb({"inputs_built": 2, "inputs_reused": 5})
        stats.absorb({"inputs_built": 1})
        assert (stats.inputs_built, stats.inputs_reused) == (3, 5)


# -- (b) sharing across global orders --------------------------------------

class TestSharingAcrossOrders:
    @pytest.mark.parametrize("n", [
        8,   # every column holds all 8 values: local == global
        40,  # sparse columns: domains differ, tries are re-keyed
    ])
    def test_same_column_order_same_trie_object(self, n):
        query = triangle(n=n, per_node=8 if n == 8 else 1)
        abc = EncodedInstance.from_query(query, ("a", "b", "c"))
        acb = EncodedInstance.from_query(query, ("a", "c", "b"))
        again = EncodedInstance.from_query(query, ("a", "b", "c"))
        by_name = {trie.name: trie for trie in abc.tries}
        for trie in acb.tries:
            same_columns = trie.order == by_name[trie.name].order
            assert same_columns == (trie.name in ("R", "T"))
            assert (trie is by_name[trie.name]) == same_columns
        assert all(a is b for a, b in zip(abc.tries, again.tries))
        assert abc.built == (True, True, True)
        assert acb.built == (False, True, False)  # only S(c, b) is new
        assert again.built == (False, False, False)

    def test_equal_domains_use_the_cached_trie_as_it_stands(self):
        query = triangle(n=8, per_node=8)
        instance = EncodedInstance.from_query(query, ("a", "b", "c"))
        for relation, trie in zip(query.relations, instance.tries):
            artefact, built = relation_input(relation, instance.order)
            assert not built and trie is artefact.trie
            assert all(instance.dictionaries[d.attribute].values == d.values
                       for d in artefact.dictionaries)
        # The first binder's local dictionary *is* the global one.
        r = relation_input(query.relations[0], instance.order)[0]
        assert instance.dictionaries["a"] is r.dictionaries[0]

    def test_unequal_domains_rekey_once(self):
        r = Relation("R", ("a", "b"), [(1, "x"), (5, "y")])
        s = Relation("S", ("b", "c"), [("y", 0), ("z", 1)])
        first = EncodedInstance.from_relations([r, s])
        second = EncodedInstance.from_relations([r, s])
        assert first.dictionaries["b"].values == ("x", "y", "z")
        assert first.dictionaries["b"] is second.dictionaries["b"]
        assert all(a is b for a, b in zip(first.tries, second.tries))
        assert first.tries[0] is not relation_input(r, first.order)[0].trie
        assert decoded(first) == {
            ("R", ("a", "b")): [(1, "x"), (5, "y")],
            ("S", ("b", "c")): [("y", 0), ("z", 1)]}


# -- (c) the translation path against a from-scratch encode ----------------

values = st.one_of(st.integers(0, 6), st.sampled_from(["u", "v", "w"]),
                   st.none())


def relations_strategy():
    """2-3 relations over attributes drawn from a small pool, so shared
    attributes get overlapping-but-unequal domains; empty inputs,
    zero-arity inputs and values present in one input only included."""
    def relation(index):
        return st.lists(st.sampled_from("abcd"), max_size=3,
                        unique=True).flatmap(
            lambda attrs: st.lists(
                st.tuples(*[values] * len(attrs)), max_size=8).map(
                lambda rows: Relation(f"R{index}", tuple(attrs), rows)))

    return st.integers(2, 3).flatmap(
        lambda count: st.tuples(*[relation(i) for i in range(count)]))


class TestTranslation:
    @settings(max_examples=120, deadline=None)
    @given(relations_strategy(), st.randoms(use_true_random=False))
    def test_assembly_equals_scratch_encode_of_fresh_inputs(self, relations,
                                                            rng):
        relations = list(relations)
        attributes = []
        for relation in relations:
            attributes += [a for a in relation.schema
                           if a not in attributes]
        # Warm the artefacts under another peer set and another order
        # first, so this assembly reuses every input and re-keys tries
        # whose last re-keying was against other dictionaries.
        shuffled = list(attributes)
        rng.shuffle(shuffled)
        EncodedInstance.from_relations(relations, attributes)
        EncodedInstance.from_relations(relations[:2], None)
        EncodedInstance.from_relations(relations, shuffled)
        assembled = EncodedInstance.from_relations(relations, attributes)
        scratch = EncodedInstance.from_relations(
            [fresh(r) for r in relations], attributes)
        assert not any(assembled.built) and all(scratch.built)
        assert {a: d.values for a, d in assembled.dictionaries.items()} \
            == {a: d.values for a, d in scratch.dictionaries.items()}
        assert [list(t.tuples()) for t in assembled.tries] \
            == [list(t.tuples()) for t in scratch.tries]
        assert decoded(assembled) == {
            (r.name, r.schema.restrict_order(attributes)): sorted(
                (tuple(row[r.schema.index(a)]
                       for a in r.schema.restrict_order(attributes))
                 for row in r.rows),
                key=lambda row: [assembled.dictionaries[a].encode(v)
                                 for a, v in zip(
                                     r.schema.restrict_order(attributes),
                                     row)])
            for r in relations}
        # The relational kernels never look at a zero-arity input, so
        # an *empty* one (FALSE) is outside what they can answer.
        if all(r.schema.arity or r.rows for r in relations):
            oracle = naive_multiway_join(relations, name="Q") \
                .project(attributes)
            for algorithm in ("generic_join", "leapfrog"):
                assert get_algorithm(algorithm).run(assembled) == oracle

    @pytest.mark.parametrize("seed", range(25))
    def test_multimodel_rows_equal_the_naive_oracle(self, seed):
        query = random_multimodel_instance(seed, value_range=4)
        oracle = query.naive_join()
        orders = [query.attributes, tuple(reversed(query.attributes))]
        for order in orders + orders:  # second lap: everything cached
            assert run_query(query, order=order) == oracle

    def test_a_value_in_one_input_only_and_an_empty_input(self):
        r = Relation("R", ("a",), [(1,), (None,), ("u",)])
        s = Relation("S", ("a",), [(1,), (7,)])
        empty = Relation("E", ("a",), [])
        instance = EncodedInstance.from_relations([r, s])
        assert instance.dictionaries["a"].values == (1, 7, "u", None)
        assert get_algorithm("leapfrog").run(instance).rows == {(1,)}
        with_empty = EncodedInstance.from_relations([r, s, empty])
        assert with_empty.has_empty_input()
        assert not get_algorithm("generic_join").run(with_empty).rows

    def test_zero_arity_inputs(self):
        true = Relation("T", (), [()])
        false = Relation("F", (), [])
        r = Relation("R", ("a",), [(1,), (2,)])
        assert len(get_algorithm("generic_join").run(
            EncodedInstance.from_relations([r, true]))) == 2
        instance = EncodedInstance.from_relations([true, false])
        assert [trie.size for trie in instance.tries] == [1, 0]


# -- (d) invalidation by the update layer ----------------------------------

class TestInvalidation:
    def test_insert_rebuilds_only_that_relation(self):
        session = QuerySession(triangle())
        stats = JoinStats()
        session.insert("S", (1000, 1001))
        result = run_query(session.query, stats=stats)
        assert (stats.inputs_built, stats.inputs_reused) == (1, 2)
        assert stats.inputs["S"] == [1, 0]
        assert result == session.answer()

    @pytest.mark.parametrize("edit", ["change_value", "insert_subtree"])
    def test_document_edit_rebuilds_only_that_document(self, edit):
        query = bookstore_query()
        session = QuerySession(query)
        document = session.document_of("X")
        if edit == "change_value":
            session.change_value("X", document.nodes("year")[0], "1850")
        else:
            session.insert_subtree(
                "X", document.root,
                element("book", element("title", text="c"),
                        element("year", text="1850")))
        stats = JoinStats()
        result = run_query(session.query, stats=stats)
        if edit == "change_value":
            # Only the input with a year node read the edited values.
            assert stats.inputs == {"R": [0, 1], "X[b/t]": [0, 1],
                                    "X[b/y]": [1, 0]}
        else:  # a splice moves labels and postings: all of X is new
            assert stats.inputs == {"R": [0, 1], "X[b/t]": [1, 0],
                                    "X[b/y]": [1, 0]}
        assert result == session.answer() == session.query.naive_join()
        assert (3, ) in result.project(["x"]).rows  # the new 1850 joins

    def test_an_insert_of_held_values_keeps_the_dictionaries(self):
        session = QuerySession(bookstore_query())
        query = session.query
        before = EncodedInstance.from_query(query, query.attributes)
        dictionaries = relation_dictionaries(query.relations[0])
        session.insert("R", (1, 2001))  # x = 1 and y = 2001 are held
        relation = query.relations[0]
        assert (1, 2001) in relation.rows
        assert same_objects(relation_dictionaries(relation), dictionaries)
        after = EncodedInstance.from_query(query, query.attributes)
        assert after.built == (True, False, False)  # R's trie only
        # The peer twig tries, re-keyed by the merged year dictionary,
        # are the very objects of before the write.
        assert all(a is b for a, b in zip(before.tries[1:],
                                          after.tries[1:]))
        assert after.dictionaries["y"] is before.dictionaries["y"]
        assert run_query(query) == session.answer() == query.naive_join()

    def test_a_trie_asked_for_its_own_dictionaries_keeps_its_memo(self):
        relation = Relation("R", ("a",), [(1,), (2,)])
        artefact, _built = relation_input(relation, ("a",))
        wider = Dictionary("a", [0, 1, 2])
        rekeyed = artefact.trie_under({"a": wider})
        assert rekeyed is not artefact.trie
        own = {"a": artefact.dictionaries[0]}
        assert artefact.trie_under(own) is artefact.trie
        # The re-keyed copy is still remembered for the wider union.
        assert artefact.trie_under({"a": wider}) is rekeyed

    def test_an_insert_of_a_new_value_rebuilds_only_its_dictionary(self):
        session = QuerySession(bookstore_query())
        query = session.query
        x, y = relation_dictionaries(query.relations[0])
        session.insert("R", (4, 2001))  # x = 4 is new
        new_x, new_y = relation_dictionaries(query.relations[0])
        assert new_y is y
        assert new_x is not x and new_x.values == (1, 2, 3, 4)
        assert run_query(query) == session.answer() == query.naive_join()

    def test_writes_with_no_read_between_them_carry_the_dictionaries(self):
        session = QuerySession(bookstore_query())
        query = session.query
        dictionaries = relation_dictionaries(query.relations[0])
        for insert, row in [(True, (1, 2001)), (False, (1, 2001)),
                            (True, (2, 1999)), (False, (3, 1850)),
                            (True, (3, 1850))]:
            (session.insert if insert else session.delete)("R", row)
            # Nothing read this version: its column pass never ran.
            assert "columns" not in query.relations[0].artefacts
        assert same_objects(relation_dictionaries(query.relations[0]),
                            dictionaries)
        assert session.relations["R"].version == 5
        assert run_query(query) == session.answer() == query.naive_join()

    def test_a_pin_before_the_write_reads_its_rows(self):
        session = QuerySession(bookstore_query())
        query = session.query
        before, rows = session.answer(), query.relations[0].rows
        dictionaries = relation_dictionaries(query.relations[0])
        snapshot = session.pin()
        # Every value stays held, so the dictionaries carry over too.
        session.insert("R", (2, 1999))
        session.insert("R", (3, 2001))
        session.delete("R", (2, 2001))
        assert same_objects(relation_dictionaries(query.relations[0]),
                            dictionaries)
        assert snapshot.relation("R").rows == rows
        assert snapshot.run() == before != session.answer()
        assert run_query(query) == session.answer() == query.naive_join()
        snapshot.release()

    def test_a_pinned_snapshot_still_reads_its_version(self):
        session = QuerySession(bookstore_query())
        before = session.answer()
        snapshot = session.pin()
        session.insert("R", (4, 2001))
        session.change_value(
            "X", session.document_of("X").nodes("year")[0], "1850")
        assert session.answer() != before
        assert snapshot.run() == before
        assert run_query(session.query) == session.answer()
        snapshot.release()

    def test_releasing_the_last_pin_drops_the_versions_artefacts(self):
        session = QuerySession(bookstore_query())
        snapshot = session.pin()
        pinned_relation = snapshot.relation("R")
        session.insert("R", (4, 2001))
        session.change_value(
            "X", session.document_of("X").nodes("year")[0], "1850")
        clone = snapshot.query().twigs[0].document
        assert clone is not session.document_of("X")
        snapshot.run()
        assert relation_input(pinned_relation, ("x", "y"))[1] is False
        assert columnar(clone).derived
        derived = planted(columnar(clone))
        artefacts = planted_on(pinned_relation)
        del pinned_relation
        gc.disable()  # reclamation must not lean on the collector
        try:
            snapshot.release()
            assert artefacts() is None
            assert clone.view is None
            assert derived() is None
        finally:
            gc.enable()


# -- (e) lifetime ----------------------------------------------------------

class TestLifetime:
    def test_artefacts_die_with_their_inputs(self):
        query = bookstore_query()
        run_query(query)
        assert all(relation.artefacts for relation in query.relations)
        artefacts = [planted_on(relation) for relation in query.relations]
        view = columnar(query.twigs[0].document)
        assert any(isinstance(key, tuple) and "dictionaries" in key
                   for key in view.derived)
        derived = planted(view)
        del view
        gc.collect()
        gc.disable()
        try:
            del query
            # Relations are freed by reference count alone: no artefact
            # refers back to its input.
            assert all(probe() is None for probe in artefacts)
        finally:
            gc.enable()
        gc.collect()  # documents are cyclic trees: one collection
        assert derived() is None

    def test_an_artefact_holds_no_reference_to_its_relation(self):
        relation = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        peer = Relation("S", ("b",), [(2,), (9,)])
        EncodedInstance.from_relations([relation, peer])  # merged + re-keyed
        artefact = relation_input(relation, ("a", "b"))[0]
        gone = weakref.ref(relation)
        gc.disable()
        try:
            del relation
            assert gone() is None
        finally:
            gc.enable()
        assert artefact.trie.size == 2  # alive only because we hold it


# -- (f) cached tries are frozen -------------------------------------------

class TestFrozen:
    def test_nothing_on_the_query_path_changes_a_cached_trie(self):
        query = triangle(n=60)
        instance = EncodedInstance.from_query(query, query.attributes)
        before = [list(trie.tuples()) for trie in instance.tries]
        for algorithm in available_algorithms():
            run_query(query, algorithm=algorithm)
        for lo, hi in ((0, 10), (10, 60)):
            get_algorithm("generic_join").run(
                sliced_instance(instance, lo, hi))
            get_algorithm("leapfrog").run(
                sliced_instance(instance, lo, hi, detach=True))
        for transport in ("fork", "shm", "mmap", "serial"):
            try:
                ParallelExecutor(2, transport=transport).run_join(
                    instance, "generic_join")
            except TransportError:  # unavailable on this platform
                continue
        again = EncodedInstance.from_query(query, query.attributes)
        assert not any(again.built)
        assert all(a is b for a, b in zip(instance.tries, again.tries))
        assert [list(trie.tuples()) for trie in again.tries] == before

    def test_twig_inputs_survive_xjoin_and_its_fork_workers(self):
        query = example34_instance(5).query
        instance = EncodedInstance.from_query(query, query.attributes)
        before = [list(trie.tuples()) for trie in instance.tries]
        serial = run_query(query)
        assert run_query(query, workers=2) == serial
        again = EncodedInstance.from_query(query, query.attributes)
        assert not any(again.built)
        assert [list(trie.tuples()) for trie in again.tries] == before


# -- (g) predicates are part of a twig input's identity --------------------

class TestTwigInputIdentity:
    def twig(self, predicate):
        root = TwigNode("b", tag="book")
        root.child("y", tag="year", predicate=predicate)
        return TwigQuery(root)

    def test_equal_tags_with_different_predicates_never_share(self):
        document = library()
        old = self.twig(lambda v: v < 2000)
        new = self.twig(lambda v: v >= 2000)
        q_old = MultiModelQuery([], [TwigBinding(old, document)])
        q_new = MultiModelQuery([], [TwigBinding(new, document)])
        path_old = _decomposition(old).paths[0]
        path_new = _decomposition(new).paths[0]
        assert path_old.name == path_new.name
        first, built_first = twig_input(document, path_old)
        second, built_second = twig_input(document, path_new)
        assert built_first and built_second and first is not second
        assert twig_input(document, path_old) == (first, False)
        assert {row[1] for row in run_query(q_old).rows} == {1999}
        assert {row[1] for row in run_query(q_new).rows} == {2001}

    def test_the_same_atom_shares_across_queries(self):
        document = library()
        twig = parse_twig("b=book(/y=year)")
        one = MultiModelQuery([], [TwigBinding(twig, document)])
        two = MultiModelQuery([Relation("R", ("q",), [(1,)])],
                              [TwigBinding(twig, document)])
        run_query(one)
        stats = JoinStats()
        run_query(two, stats=stats)
        assert stats.inputs == {"R": [1, 0], "X[b/y]": [0, 1]}


class TestTwigInputSize:
    """The bound's cardinalities are the sizes of the tries XJoin
    joins, read without building one in a second column order."""

    def test_size_bound_after_a_run_builds_and_caches_nothing(
            self, monkeypatch):
        from repro.core.decomposition import path_relation_cardinality
        from repro.data.dblp import dblp_document, dblp_query
        from repro.engine import encoded

        query = dblp_query(dblp_document(300))
        stats = JoinStats()
        run_query(query, stats=stats)
        assert stats.inputs_built == 3
        view = columnar(query.twigs[0].document)
        keys = set(view.derived)
        cold = dblp_query(dblp_document(300))
        structural = cold.structural_attributes(cold.twigs[0])
        # Every trie build, from rows or columns, runs this one body.
        built = []
        monkeypatch.setattr(encoded.EncodedTrie, "_fill",
                            lambda *args, **kwargs: built.append(args))
        sizes = {edge.name: edge.cardinality
                 for edge in query.hypergraph(ad_pairs=True).edges}
        assert query.size_bound().bound > 0
        # ... and the same count, from the gather alone, on a cold view.
        counts = [path_relation_cardinality(cold.twigs[0].document, path,
                                            structural)
                  for path in _decomposition(cold.twigs[0].twig).paths]
        assert not built and set(view.derived) == keys
        monkeypatch.undo()
        again = JoinStats()
        run_query(query, stats=again)
        assert again.inputs_built == 0
        articles = len(query.twigs[0].document.nodes("article"))
        assert sizes == {"eras": 30, "X[a/y]": articles, "X[a/j]": articles}
        assert counts == [articles] * 2
        assert not any(isinstance(value, encoded.EncodedInput) for value
                       in columnar(cold.twigs[0].document).derived.values())


# -- (h) concurrent assembly -----------------------------------------------

def test_four_threads_on_one_query_all_return_the_oracle():
    query = random_multimodel_instance(11, max_doc_nodes=40, value_range=4)
    oracle = query.naive_join()
    results, errors = [], []
    barrier = threading.Barrier(4)

    def worker():
        try:
            barrier.wait(timeout=10)
            for _ in range(5):
                results.append(run_query(query))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 20 and all(r == oracle for r in results)


def test_threads_racing_on_a_cold_identity_bound_twig_agree():
    """A first use from several threads at once: every input of the
    twig must end up on one code space per identity-bound attribute
    (two would be merged into a dictionary that erases nothing)."""
    import sys

    from repro.service.corpus import corpus_query

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(12):
            query = corpus_query("bookstore:orders=40,users=12")  # cold
            results, errors = [], []
            barrier = threading.Barrier(4)

            def worker():
                try:
                    barrier.wait(timeout=10)
                    results.append(run_query(query))
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            oracle = query.naive_join()
            assert len(results) == 4 and all(r == oracle for r in results)
    finally:
        sys.setswitchinterval(interval)


# -- (i) the shared leaf ---------------------------------------------------

class TestSharedLeaf:
    @pytest.mark.parametrize("rows", [
        [(3,), (1,), (2,)],                    # arity 1
        [(1, 2), (1, 3), (2, 2)],
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (5, 5, 5)],
    ])
    def test_rebuild_round_trip(self, rows):
        """An update rebuilds a trie from its rows: one row more, every
        row removed, and back, each build leaving the leaf untouched."""
        arity = len(rows[0])
        order = tuple("abc"[:arity])
        trie = EncodedTrie("T", order, rows)
        stored = sorted(rows)
        assert list(trie.tuples()) == stored and trie.size == len(rows)
        extra = tuple([9] * arity)
        grown = EncodedTrie("T", order, [*trie.tuples(), extra, extra])
        assert grown.size == len(rows) + 1
        assert list(grown.tuples()) == stored + [extra]
        emptied = EncodedTrie("T", order, [])
        assert emptied.size == 0 and not len(emptied.root.keys)
        back = EncodedTrie("T", order, [row for row in grown.tuples()
                                        if row != extra])
        assert list(back.tuples()) == stored and back.size == len(rows)
        assert not len(_LEAF.keys) and not _LEAF.children

    def test_rows_end_in_the_one_leaf(self):
        trie = EncodedTrie("T", ("a", "b"), [(1, 2), (1, 3), (2, 2)])
        leaves = {id(leaf) for node in trie.root.children.values()
                  for leaf in node.children.values()}
        assert leaves == {id(_LEAF)}
        assert not len(_LEAF.keys) and not _LEAF.children

    def test_zero_arity_trie(self):
        assert EncodedTrie("T", (), []).size == 0
        full = EncodedTrie("T", (), [(), ()])
        assert full.size == 1 and list(full.tuples()) == [()]
