"""Functional twig children bind next to their parent.

A twig node on a ``/`` edge that is not existential, whose parent's
every element has at most one child of its tag, moves to right after its
parent in every policy's pick (:func:`repro.engine.planner.
functional_next`, after ``existential_last``). An explicit order is
obeyed as given. The fan-out is read off the columnar view
(:meth:`ColumnarDocument.fan_out`), once per view version, and only for
an edge the rewrite could move. Rows never change; no stage grows.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.data.dblp import dblp_chunks, dblp_document, dblp_query
from repro.data.synthetic import example34_instance
from repro.engine import adaptive, run_query
from repro.engine.adaptive import FeedbackStore, PlanRacer
from repro.engine.planner import (
    ORDER_STRATEGIES,
    attribute_order,
    existential_last,
    functional_next,
    plan_query,
    policy_order,
    statistics_for,
)
from repro.instrumentation import JoinStats
from repro.relational.relation import Relation
from repro.service.corpus import corpus_query
from repro.updates.session import QuerySession
from repro.xml import streaming
from repro.xml.arenaview import attach_arena_document
from repro.xml.columnar import ColumnarDocument, columnar
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.twig import TwigNode, TwigQuery
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_document

#: The order ``connected`` picks on ``mm_xmark`` before the rewrite.
RAW = ("p", "i", "x", "nm")
MOVED = ("p", "nm", "i", "x")


def people(names=(1, 1, 1), *, text=True):
    """A ``site`` of persons with *names[k]* ``name`` children each (no
    text if not *text*) and two interests each, under a profile."""
    root = XMLNode("site")
    for k, count in enumerate(names):
        person = root.add("person")
        for n in range(count):
            person.add("name", text=f"n{k}.{n}" if text else "")
        profile = person.add("profile")
        for j in range(2):
            profile.add("interest", text=str((k + j) % 3))
    return XMLDocument(root)


def people_query(document, pattern="p=person(/nm=name, //i=interest)"):
    twig = parse_twig(pattern) if isinstance(pattern, str) else pattern
    relation = Relation("R", ("x", "i"),
                        [(x, i) for x in range(3) for i in range(3)])
    return MultiModelQuery([relation], [TwigBinding(twig, document)],
                           name="XQ")


def xmark_query(factor, seed):
    """``mm_xmark``'s query over a seeded XMark document."""
    rng = random.Random(seed)
    document = xmark_document(factor, seed=seed)
    categories = sorted({node.value for node in document.nodes("interest")})
    relation = Relation("R", ("x", "i"),
                        [(x, category) for x in range(12)
                         for category in categories if rng.random() < 0.95])
    return MultiModelQuery(
        [relation],
        [TwigBinding(parse_twig("p=person(/nm=name, //i=interest)"),
                     document)], name="XQ")


def reference_fan_out(document, parent_tag, child_tag):
    """Per element, counted on the node tree."""
    return max((sum(child.tag == child_tag for child in node.children)
                for node in document.root.iter() if node.tag == parent_tag),
               default=0)


class TestTheRule:
    def test_a_child_once_under_every_parent_moves(self):
        query = people_query(people())
        assert functional_next(query, RAW) == MOVED
        assert attribute_order(query, "connected")[:2] == ("p", "nm")

    def test_one_parent_with_two_such_children_keeps_it(self):
        query = people_query(people((1, 2, 1)))
        assert functional_next(query, RAW) == RAW

    def test_a_descendant_edge_keeps_it(self):
        query = people_query(people(),
                             "p=person(//nm=name, //i=interest)")
        assert functional_next(query, RAW) == RAW

    def test_an_existential_child_keeps_it(self):
        query = people_query(people(text=False))
        assert statistics_for(query).twig_domains()["X", "nm"][1]
        assert functional_next(query, RAW) == RAW

    def test_an_explicit_order_is_obeyed(self):
        query = people_query(people())
        assert attribute_order(query, RAW) == RAW
        assert plan_query(query, order=RAW).order == RAW

    def test_a_child_with_a_value_predicate_moves(self):
        root = TwigNode("p", tag="person")
        root.child("nm", tag="name", predicate=lambda v: v != "n1.0")
        root.descendant("i", tag="interest")
        query = people_query(people(), TwigQuery(root))
        assert functional_next(query, RAW) == MOVED

    def test_children_already_in_place_stay(self):
        query = corpus_query("bookstore:orders=40,users=8")
        # orderLine(/orderID, /ISBN, /price): ISBN and price already
        # follow their parent, orderID is bound before it.
        order = ("orderID", "userID", "orderLine", "ISBN", "price")
        assert functional_next(query, order) == order
        assert functional_next(
            query, ("orderLine", "userID", "price", "ISBN", "orderID")) == \
            ("orderLine", "price", "ISBN", "orderID", "userID")

    def test_the_rewrite_is_idempotent(self):
        for query in (people_query(people()), example34_instance(3).query,
                      corpus_query("bookstore:orders=40,users=8")):
            for policy in ORDER_STRATEGIES:
                order = attribute_order(query, policy)
                assert functional_next(query, order) == order

    def test_the_racers_candidates_are_rewritten(self, monkeypatch):
        query = people_query(people())
        monkeypatch.setitem(ORDER_STRATEGIES, "bound", lambda q, stats: RAW)
        monkeypatch.setattr(adaptive, "TOP_K", 10)
        orders = {plan.order
                  for plan in PlanRacer(FeedbackStore()).candidates(query)}
        assert RAW not in orders and MOVED in orders


class TestFanOut:
    @pytest.mark.parametrize("factor,seed", [(0.5, 1), (1.0, 2)])
    def test_equals_the_per_element_count(self, factor, seed):
        document = xmark_document(factor, seed=seed)
        view = columnar(document)
        for parent, child in (("person", "name"), ("person", "emailaddress"),
                              ("open_auction", "bidder"),
                              ("bidder", "increase"), ("site", "site"),
                              ("absent", "name"), ("person", "absent")):
            assert view.fan_out(parent, child) == \
                reference_fan_out(document, parent, child), (parent, child)

    def test_is_cached_per_view_version(self):
        query = people_query(people())
        session = QuerySession(query)
        view = columnar(query.twigs[0].document)
        assert view.fan_out("person", "name") == 1
        assert ("fan_out", "person", "name") in view.derived
        person = query.twigs[0].document.nodes("person")[0]
        session.change_value("X", person.children[0], "renamed")
        assert ("fan_out", "person", "name") in view.derived

    def test_an_arena_attached_view_reads_the_same(self):
        arena = streaming.stream_document(dblp_chunks(300, seed=1))
        try:
            _handle, attached = attach_arena_document(arena)
            view = columnar(dblp_document(300, seed=1))
            for parent, child in (("article", "year"), ("article", "author"),
                                  ("bib", "article"), ("dblp", "bib")):
                assert attached.fan_out(parent, child) == \
                    view.fan_out(parent, child), (parent, child)
        finally:
            arena.close()
            arena.unlink()


def parity_cases():
    """(label, query factory): the rewrite must change no row."""
    yield "xmark-0.5", lambda: xmark_query(0.5, 1)
    yield "xmark-0.75", lambda: xmark_query(0.75, 3)
    yield "xmark-1.0", lambda: xmark_query(1.0, 2)
    yield "dblp", lambda: dblp_query(dblp_document(400, seed=2))
    yield "bookstore", lambda: corpus_query("bookstore:orders=60,users=12")
    yield "example34", lambda: example34_instance(4).query


def assert_rewrite_keeps_rows(query):
    for policy, strategy in ORDER_STRATEGIES.items():
        raw = existential_last(query, strategy(query))
        rewritten = policy_order(query, raw)
        assert rewritten == attribute_order(query, policy)
        before, after = JoinStats(), JoinStats()
        assert run_query(query, order=raw, stats=before) == \
            run_query(query, order=rewritten, stats=after), policy
        assert after.max_intermediate <= before.max_intermediate, \
            (policy, raw, rewritten)


@pytest.mark.parametrize("label,make", list(parity_cases()),
                         ids=[label for label, _ in parity_cases()])
def test_rewritten_and_raw_picks_give_the_same_rows(label, make):
    assert_rewrite_keeps_rows(make())


def test_an_arena_attached_dblp_query_keeps_its_rows():
    arena = streaming.stream_document(dblp_chunks(400, seed=2))
    try:
        handle, _view = attach_arena_document(arena)
        assert_rewrite_keeps_rows(dblp_query(handle))
    finally:
        arena.close()
        arena.unlink()


def test_the_mm_xmark_order_moves_the_name_next_to_the_person():
    query = xmark_query(1.0, 1)
    plan = plan_query(query)
    assert plan.order[:2] == ("p", "nm")
    stats = JoinStats()
    run_query(query, stats=stats)
    sizes = stats.stage_sizes()
    assert sizes[0] == sizes[1]  # one name per person: no growth


def test_a_splice_that_adds_a_second_name_stops_the_move():
    query = people_query(people())
    session = QuerySession(query)
    assert attribute_order(query, "connected")[:2] == ("p", "nm")
    person = query.twigs[0].document.nodes("person")[1]
    session.insert_subtree("X", person, XMLNode("name", text="second"))
    view = columnar(query.twigs[0].document)
    assert view.fan_out("person", "name") == 2
    assert functional_next(query, RAW) == RAW
    assert attribute_order(query, "connected")[:2] != ("p", "nm")
    assert session.answer() == run_query(query)


@pytest.fixture
def fan_outs(monkeypatch):
    """Every (parent tag, child tag) a fan-out is computed for."""
    seen: Counter = Counter()
    fan_out = ColumnarDocument.fan_out

    def spy(self, parent_tag, child_tag):
        if ("fan_out", parent_tag, child_tag) not in self.derived:
            seen[parent_tag, child_tag] += 1
        return fan_out(self, parent_tag, child_tag)

    monkeypatch.setattr(ColumnarDocument, "fan_out", spy)
    return seen


def test_a_dblp_query_computes_no_fan_out(fan_outs):
    query = dblp_query(dblp_document(300, seed=1))
    for policy in ORDER_STRATEGIES:
        attribute_order(query, policy)
    assert plan_query(query).order == ("j", "y", "era", "a")
    PlanRacer(FeedbackStore()).candidates(query)
    arena = streaming.stream_document(dblp_chunks(300, seed=1))
    try:
        handle, _view = attach_arena_document(arena)
        attached = dblp_query(handle)
        assert plan_query(attached).order == ("j", "y", "era", "a")
        run_query(attached)
    finally:
        arena.close()
        arena.unlink()
    assert not fan_outs


def test_a_fan_out_is_computed_once_per_view_version(fan_outs):
    query = people_query(people())
    for _ in range(2):
        for policy in ORDER_STRATEGIES:
            attribute_order(query, policy)
        query.twigs[0].document.bump_version()
    assert fan_outs == Counter({("person", "name"): 1})
