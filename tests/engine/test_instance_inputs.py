"""An encoded instance keeps what it reads of its query, never the query.

:class:`~repro.engine.encoded.EncodedInstance` carries the query's
``name``, output ``attributes``, ``relations`` and twig bindings
(``twigs``) instead of the query object. So an instance (or a
:class:`~repro.engine.planner.PreparedQuery`'s) pins no query, an xjoin
arena's metadata ships no relation rows, and ``run_query`` answers as a
freshly built query does after any change to the inputs.
"""

import gc
import pickle
import weakref

import pytest

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.engine import EncodedInstance, available_algorithms, run_query
from repro.engine.encoded import relation_artefacts
from repro.engine.planner import plan_query, prepare
from repro.parallel.shm import instance_buffers
from repro.relational.relation import Relation
from repro.updates.documents import DocumentEditor
from repro.updates.session import QuerySession
from repro.xml.model import XMLDocument, element
from repro.xml.twig_parser import parse_twig


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


def triangle():
    edges = [(a, b) for a in range(6) for b in range(6) if (a + b) % 3]
    return MultiModelQuery([Relation("R", ("a", "b"), edges),
                            Relation("S", ("b", "c"), edges),
                            Relation("T", ("a", "c"), edges)],
                           name="triangle")


def rebuilt(query):
    """*query* as a freshly built query over the same inputs: nothing
    memoised for it."""
    return MultiModelQuery(list(query.relations), list(query.twigs),
                           name=query.name)


class Probe:
    """Planted in an artefact dict: dies when that dict does."""


def planted(relation):
    probe = relation_artefacts(relation)["probe"] = Probe()
    return weakref.ref(probe)


class TestInstance:
    def test_it_keeps_the_name_attributes_and_inputs(self):
        query = bookstore_query()
        plan = plan_query(query)
        instance = EncodedInstance.from_query(query, plan.order)
        assert not hasattr(instance, "query")
        assert (instance.name, instance.attributes) == \
            (query.name, query.attributes)
        assert instance.relations == query.relations
        assert instance.twigs == tuple(query.twigs)
        reference = EncodedInstance.reference(query)
        assert (reference.attributes, reference.twigs) == \
            (query.attributes, tuple(query.twigs))

    def test_an_xjoin_arena_ships_no_relation_rows(self):
        """The meta block carries the output attributes, not the query
        and the rows of every relation it joins."""
        query = triangle()
        instance = EncodedInstance.from_query(query,
                                              plan_query(query).order)
        _buffers, meta = instance_buffers(instance, "xjoin")
        assert "query" not in meta
        assert tuple(meta["attributes"]) == query.attributes
        shipped = pickle.dumps(meta)
        for relation in query.relations:
            assert pickle.dumps(relation.rows) not in shipped


class TestFresh:
    """After each change, ``run_query`` answers as a rebuilt query."""

    def check(self, query, **call):
        result = run_query(query, **call)
        assert result == run_query(rebuilt(query), **call)
        return result

    @pytest.mark.parametrize("write", ["insert", "delete"])
    def test_a_relational_write(self, write):
        session = QuerySession(bookstore_query())
        query = session.query
        run_query(query)
        if write == "insert":
            session.insert("R", (4, 2001))
        else:
            session.delete("R", (2, 2001))
        result = self.check(query)
        assert result == session.answer() == query.naive_join()

    @pytest.mark.parametrize("edit", ["change_value", "insert_subtree"])
    def test_a_document_edit(self, edit):
        session = QuerySession(bookstore_query())
        query = session.query
        run_query(query)
        document = session.document_of("X")
        if edit == "change_value":
            session.change_value("X", document.nodes("year")[0], "1850")
        else:
            session.insert_subtree(
                "X", document.root,
                element("book", element("title", text="c"),
                        element("year", text="1850")))
        result = self.check(query)
        assert (3,) in result.project(["x"]).rows  # the new 1850 joins
        assert result == session.answer() == query.naive_join()

    def test_a_relation_swapped_in_place(self):
        query = bookstore_query()
        run_query(query)
        query.relations[0] = Relation("R", ("x", "y"), [(5, 2001)])
        result = self.check(query)
        assert result == query.naive_join()
        assert {row[0] for row in result.rows} == {5}

    # Every algorithm that evaluates twig inputs.
    @pytest.mark.parametrize("algorithm", ["xjoin", "baseline"])
    def test_a_binding_swapped_in_place(self, algorithm):
        """The query reads its twigs' decompositions off the bindings it
        holds now, not those it was built with."""
        untitled = XMLDocument(element(
            "lib",
            element("book", element("title", text="a"),
                    element("year", text="1999")),
            element("book", element("title", text="b"),
                    element("year", text="2001")),
            element("book", element("year", text="1850"))))
        relation = bookstore_query().relations[0]
        query = MultiModelQuery(
            [relation], [TwigBinding(parse_twig("b=book(/t=title, /y=year)"),
                                     untitled)], name="books")
        assert {row[0] for row in run_query(query).rows} == {1, 2}
        query.twigs[0] = TwigBinding(parse_twig("b=book(/y=year)"), untitled)
        result = self.check(query, algorithm=algorithm)
        assert result.schema.attributes == query.attributes == ("x", "y", "b")
        assert result == query.naive_join()
        assert {row[0] for row in result.rows} == {1, 2, 3}  # untitled 3

    def test_a_relation_swapped_in_place_is_planned_afresh(self):
        """The planner's memoised statistics are stamped with the inputs
        they read: a swapped relation is planned as a rebuilt query's."""
        cs = [(b, c) for b in range(60) for c in range(3)]
        ac = [(a, c) for a in range(50) for c in range(3)]
        query = MultiModelQuery([
            Relation("R", ("a", "b"), [(a, b) for a in range(50)
                                       for b in range(2)]),
            Relation("S", ("b", "c"), cs), Relation("T", ("a", "c"), ac)],
            name="triangle")
        assert plan_query(query).order == ("b", "c", "a")
        query.relations[0] = Relation("R", ("a", "b"), [
            (a, b) for a in range(2) for b in range(60)])
        assert plan_query(query) == plan_query(rebuilt(query))
        assert plan_query(query).order == ("a", "c", "b")

    def test_an_edit_outside_any_session(self):
        query = bookstore_query()
        run_query(query)
        document = query.twigs[0].document
        DocumentEditor(document).change_value(document.nodes("year")[0],
                                              "1850")
        result = self.check(query)
        assert (3,) in result.project(["x"]).rows
        assert result == query.naive_join()

    def test_another_order_or_algorithm(self):
        query = triangle()
        run_query(query)
        for call in ({"order": ("c", "b", "a")}, {"order": "domain"},
                     {"algorithm": "leapfrog"}, {"algorithm": "baseline"},
                     {}):
            self.check(query, **call)


class TestLifetime:
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_del_query_frees_its_inputs(self, algorithm):
        """With the collector off: the query, its relations and their
        artefacts (the tries) die with the query and the read prepared
        from it, ``baseline``'s included."""
        query = triangle() if algorithm in ("generic_join", "leapfrog") \
            else bookstore_query()
        prepared = prepare(query, plan_query(query, algorithm=algorithm))
        for _ in range(2):
            run_query(query, algorithm=algorithm)
            prepared.run()
        read = weakref.ref(prepared)
        relations = [weakref.ref(relation) for relation in query.relations]
        artefacts = [planted(relation) for relation in query.relations]
        gone = weakref.ref(query)
        gc.collect()
        gc.disable()
        try:
            del query, prepared
            assert gone() is None and read() is None
            assert all(ref() is None for ref in relations + artefacts)
        finally:
            gc.enable()
