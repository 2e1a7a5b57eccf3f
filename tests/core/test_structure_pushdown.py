"""Soundness of XJoin's structure pushdown (one seeded suite).

The default path joins every cut A-D twig edge as an encoded pair input,
validates twig structure at the level that completes the twig (or skips
the check when the join implies it) and must, on every instance:

* return exactly naive-twig-answers ⋈ relations,
* keep every stage at or below the relaxed join's stage (the pre-pushdown
  path: ``validate_structure=False``) and below ``size_bound()``,
* count every tuple its validation rejects exactly once.

Randomized cases derive from ``REPRO_PUSHDOWN_SEED`` (echoed in the
pytest header and in every assertion message).
"""

from __future__ import annotations

import pytest
from pushdown_harness import PUSHDOWN_SEED, relaxed_then_naive, seeded_rng

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.core.xjoin import xjoin
from repro.data.random_instances import random_multimodel_instance
from repro.engine import EncodedInstance, run_query
from repro.instrumentation import JoinStats
from repro.parallel.morsels import fork_available
from repro.relational.relation import Relation
from repro.xml.model import XMLDocument, element
from repro.xml.navigation import match_relation
from repro.xml.twig import TwigNode, TwigQuery
from repro.xml.twig_parser import parse_twig

SEED_NOTE = f"(REPRO_PUSHDOWN_SEED={PUSHDOWN_SEED})"
POLICIES = ("appearance", "domain", "connected", "bound")


def stage_sizes(stats: JoinStats) -> dict[str, int]:
    return {record.label: record.size for record in stats.stages}


def run_both(query, order):
    """(rows, pushdown stats, relaxed stats) at one resolved order."""
    pushed, relaxed = JoinStats(), JoinStats()
    rows = xjoin(query, order, stats=pushed)
    xjoin(query, order, stats=relaxed, validate_structure=False)
    return rows, pushed, relaxed


def assert_sound(query, order, note=""):
    """Rows, stage and bound checks of the pushdown at one order."""
    note = f"{note} order={order!r} {SEED_NOTE}"
    rows, pushed, relaxed = run_both(query, order)
    assert rows == query.naive_join(), f"rows differ from naive {note}"
    old = stage_sizes(relaxed)
    for label, size in stage_sizes(pushed).items():
        if label in old:  # "empty input" early exits have no twin
            assert size <= old[label], \
                f"stage {label!r}: {size} > relaxed {old[label]} {note}"
    bound = query.size_bound().bound_ceiling
    assert pushed.max_intermediate <= bound, \
        f"max_intermediate {pushed.max_intermediate} > bound {bound} {note}"
    return pushed


def twig_last_order(query) -> tuple[str, ...]:
    """An order in which the (single) twig completes at the last level."""
    twig_attrs = query.twigs[0].twig.attributes
    return tuple(a for a in query.attributes if a not in twig_attrs) \
        + twig_attrs


def validated_at(query, order=None) -> dict:
    order = tuple(order) if order is not None else query.attributes
    return EncodedInstance.from_query(query, order).twig_filters.validated_at


# -- random instances ------------------------------------------------------

@pytest.mark.parametrize("case", range(60))
def test_random_instances_are_sound_under_every_policy(case):
    rng = seeded_rng(("random", case))
    query = random_multimodel_instance(rng.randrange(10 ** 6))
    for policy in POLICIES:
        assert_sound(query, policy, note=f"case {case}")
    shuffled = list(query.attributes)
    rng.shuffle(shuffled)
    assert_sound(query, tuple(shuffled), note=f"case {case}")


@pytest.mark.parametrize("case", range(60))
def test_rejections_are_counted_exactly_once(case):
    """emitted + filtered == the stage size at the level where the twig
    completes (here: the last level, so the survivors are the rows)."""
    rng = seeded_rng(("filtered", case))
    query = random_multimodel_instance(rng.randrange(10 ** 6),
                                       value_range=2)
    stats = assert_sound(query, twig_last_order(query), note=f"case {case}")
    sizes = stats.stage_sizes()
    assert stats.emitted + stats.filtered == sizes[-1], \
        f"case {case}: emitted {stats.emitted} + filtered " \
        f"{stats.filtered} != last stage {sizes[-1]} {SEED_NOTE}"


# -- adversarial shapes ----------------------------------------------------

def duplicate_branch_document(copies: int = 3) -> XMLDocument:
    """``a`` nodes that all carry value 7, each with only a ``b`` or
    only a ``c`` child — plus one real match."""
    root = element("r")
    for i in range(copies):
        root.append(element("a", element("b", text=str(i)), text="7"))
        root.append(element("a", element("c", text=str(i)), text="7"))
    root.append(element("a", element("b", text="9"), element("c", text="9"),
                        text="7"))
    return XMLDocument(root)


class TestValueBoundBranchingNode:
    def query(self):
        doc = duplicate_branch_document()
        relation = Relation("R", ("x", "b"),
                            [(x, b) for x in range(3) for b in (0, 1, 2, 9)])
        return MultiModelQuery(
            [relation], [TwigBinding(parse_twig("a(/b, /c)", name="T"), doc)])

    def test_validation_is_not_skipped(self):
        query = self.query()
        order = twig_last_order(query)
        assert validated_at(query, order) == {"T": "c"}
        # ... and it is needed: the relaxed join pairs every b with
        # every c under the conflated value 7.
        assert len(xjoin(query, order, validate_structure=False)) > \
            len(query.naive_join())
        assert_sound(query, order)

    def test_every_rejection_counted_on_memo_hits_too(self):
        """Each x replays the same twig projections: most rejections are
        memo hits (the pre-fix counter saw only the misses)."""
        query = self.query()
        stats = assert_sound(query, twig_last_order(query))
        # 4 b x 4 c projections, one of them embeds, replayed for 3 x.
        assert stats.stage_sizes()[-1] == 48
        assert (stats.emitted, stats.filtered) == (3, 45)
        instance = EncodedInstance.from_query(query, twig_last_order(query))
        from repro.engine import get_algorithm

        get_algorithm("xjoin").run(instance)
        (_positions, validator), = instance.twig_filters.checks[-1]
        assert validator.cache_size == 16

    def test_early_validation_prunes_before_the_relation_expands(self):
        query = self.query()
        order = ("a", "b", "c", "x")  # the twig completes at level c
        assert validated_at(query, order) == {"T": "c"}
        stats = assert_sound(query, order)
        sizes = dict(zip(order, stats.stage_sizes()))
        assert sizes["c"] == 16 and stats.filtered == 15
        assert sizes["x"] == 3  # only the embedding reaches R's fan-out


def test_same_tag_recursion_has_no_self_pairs():
    leaf = element("a", text="1")
    doc = XMLDocument(element("a", element("a", leaf, text="1"), text="1"))
    twig = TwigQuery(TwigNode("u", tag="a"))
    twig.root.descendant("l", tag="a")
    query = MultiModelQuery([], [TwigBinding(twig, doc)])
    # Every node has value 1: a self pair would embed (1, 1) even in a
    # one-node document. Three nested nodes give the single value row.
    assert set(xjoin(query)) == {(1, 1)}
    single = MultiModelQuery(
        [], [TwigBinding(twig, XMLDocument(element("a", text="1")))])
    assert len(xjoin(single)) == 0
    for policy in POLICIES:
        assert_sound(query, policy)
        assert_sound(single, policy)


def test_ad_edge_below_a_pc_branch():
    root = element("r")
    for i in range(4):
        deep = element("m", element("c", text=str(i % 2)))
        root.append(element("a", element("b", text=str(i)), deep,
                            text=str(i // 2)))
    root.append(element("d", text="5"))
    doc = XMLDocument(root)
    twig = parse_twig("r(/a(/b, //c), /d)")
    relation = Relation("R", ("c", "y"), [(0, "u"), (1, "v"), (2, "w")])
    query = MultiModelQuery([relation], [TwigBinding(twig, doc)])
    for policy in POLICIES:
        assert_sound(query, policy)
    assert_sound(query, ("y", "c", "b", "a", "d", "r"))


def test_value_predicate_on_the_lower_node():
    root = element("r")
    for i in range(6):
        root.append(element("a", element("m", element("c", text=str(i))),
                            text=str(i % 2)))
    doc = XMLDocument(root)
    upper = TwigNode("a", tag="a")
    upper.descendant("c", tag="c", predicate=lambda v: v >= 3)
    twig = TwigQuery(upper)
    relation = Relation("R", ("a", "z"), [(0, "p"), (1, "q")])
    query = MultiModelQuery([relation], [TwigBinding(twig, doc)])
    assert set(xjoin(query).project(["a", "c"])) == {(1, 3), (0, 4), (1, 5)}
    for policy in POLICIES:
        assert_sound(query, policy)


@pytest.mark.parametrize("case", range(40))
def test_twig_only_queries(case):
    from repro.data.random_instances import random_twig
    from repro.xml.generator import random_document

    rng = seeded_rng(("twig-only", case))
    doc = random_document(rng, tags=("x", "y", "z"), max_nodes=30,
                          value_range=2)
    twig = random_twig(rng, ["x", "y", "z"], max_nodes=5)
    query = MultiModelQuery([], [TwigBinding(twig, doc)])
    expected = match_relation(doc, twig).project(query.attributes)
    for policy in POLICIES:
        assert xjoin(query, policy) == expected, f"case {case} {SEED_NOTE}"
        assert_sound(query, policy, note=f"case {case}")


@pytest.mark.parametrize("case", range(20))
def test_two_twigs_over_one_document(case):
    from repro.xml.generator import random_document

    rng = seeded_rng(("two-twigs", case))
    doc = random_document(rng, tags=("x", "y", "z"), max_nodes=25,
                          value_range=3)
    first = parse_twig("p=x(//q=y)", name="T1")
    second = parse_twig("q=y(/s=z, //t=x)", name="T2")  # joins T1 on q
    relation = Relation("R", ("p", "w"),
                        [(value, w) for value in range(3) for w in "ab"])
    query = MultiModelQuery(
        [relation], [TwigBinding(first, doc), TwigBinding(second, doc)])
    assert relaxed_then_naive(query) == query.naive_join()
    for policy in POLICIES:
        assert_sound(query, policy, note=f"case {case}")


def test_arena_document_view():
    from repro.xml.arenaview import attach_arena_document
    from repro.xml.serializer import serialize
    from repro.xml.streaming import stream_document

    doc = duplicate_branch_document(copies=4)
    twig = parse_twig("a(/b, //c)", name="T")
    relation = Relation("R", ("b", "x"), [(b, b % 2) for b in range(10)])
    live = MultiModelQuery([relation], [TwigBinding(twig, doc)])
    arena = stream_document([serialize(doc)])
    try:
        handle, _view = attach_arena_document(arena)
        attached = MultiModelQuery([relation], [TwigBinding(twig, handle)])
        for policy in POLICIES:
            assert xjoin(attached, policy) == xjoin(live, policy)
            assert_sound(attached, policy)
        assert validated_at(attached) == validated_at(live) == {"T": "c"}
    finally:
        arena.close()
        arena.unlink()


# -- the XMark query -------------------------------------------------------

def xmark_query(conflate_bidders: bool):
    """``bidder(/increase, //personref)`` under open auctions, joined with
    a relation; with *conflate_bidders* the relation also binds the
    valueless ``bidder`` node, which stops it from being surrogate-bound
    (every bidder then shares the value None) and forces validation."""
    from repro.xml.xmark import xmark_document

    doc = xmark_document(0.5, seed=PUSHDOWN_SEED)
    twig = parse_twig("oa=open_auction(//bd=bidder(/inc=increase, "
                      "/pr=personref))", name="X")
    refs = sorted({node.value for node in doc.nodes("personref")})
    if conflate_bidders:
        relation = Relation("R", ("bd", "pr", "x"),
                            [(None, ref, x) for ref in refs[::2]
                             for x in range(2)])
    else:
        relation = Relation("R", ("pr", "x"),
                            [(ref, x) for ref in refs[::2]
                             for x in range(2)])
    return MultiModelQuery([relation], [TwigBinding(twig, doc)], name="XQ")


def test_xmark_query_skips_validation_when_surrogates_bind_the_branch():
    query = xmark_query(conflate_bidders=False)
    assert validated_at(query) == {"X": None}
    for policy in POLICIES:
        stats = assert_sound(query, policy)
        assert stats.filtered == 0
        assert stats.emitted == stats.stage_sizes()[-1]


def test_xmark_query_counts_every_rejection():
    query = xmark_query(conflate_bidders=True)
    order = twig_last_order(query)
    assert validated_at(query, order) == {"X": order[-1]}
    stats = assert_sound(query, order)
    assert stats.filtered > 0
    assert stats.emitted + stats.filtered == stats.stage_sizes()[-1], \
        SEED_NOTE


# -- parallel execution ----------------------------------------------------

@pytest.mark.skipif(not fork_available(), reason="needs the fork transport")
class TestForkWorkers:
    def test_run_query_workers_returns_identical_rows(self):
        for conflate in (False, True):
            query = xmark_query(conflate_bidders=conflate)
            assert run_query(query, workers=2) == run_query(query)

    def test_pair_tries_are_sliced_like_any_other_input(self):
        from repro.parallel.executor import ParallelExecutor
        from repro.parallel.slicing import sliced_instance

        query = xmark_query(conflate_bidders=False)
        order = ("oa", "bd", "inc", "pr", "x")
        instance = EncodedInstance.from_query(query, order)
        pair_index = next(i for i, trie in enumerate(instance.tries)
                          if trie.name == "X[oa//bd]")
        assert pair_index in instance.participation[0]
        width = len(instance.tries[pair_index].root.keys)
        assert width >= 8
        piece = sliced_instance(instance, 0, width // 2)
        assert len(piece.tries[pair_index].root.keys) < width
        serial = run_query(query, order=order)
        parallel = ParallelExecutor(2, transport="fork").run_join(
            instance, "xjoin", morsels=4)
        assert parallel == serial


# -- planner and cache hooks -----------------------------------------------

class TestPlannerSeesThePairInputs:
    def query(self):
        from repro.xml.xmark import xmark_document

        doc = xmark_document(1.0, seed=PUSHDOWN_SEED)
        categories = sorted({n.value for n in doc.nodes("interest")})
        relation = Relation("R", ("x", "i"),
                            [(x, c) for x in range(6) for c in categories])
        twig = parse_twig("p=person(/nm=name, //i=interest)", name="X")
        return MultiModelQuery([relation], [TwigBinding(twig, doc)])

    def test_joined_hypergraph_has_the_ad_edge_the_bound_does_not(self):
        from repro.core.agm import agm_bound

        query = self.query()
        paper = {edge.name for edge in query.hypergraph().edges}
        joined = {edge.name: edge
                  for edge in query.hypergraph(ad_pairs=True).edges}
        assert set(joined) - paper == {"X[p//i]"}
        assert joined["X[p//i]"].vertices == {"p", "i"}
        assert joined["X[p//i]"].cardinality > 0
        assert query.size_bound().bound == \
            agm_bound(query.hypergraph()).bound

    def test_connected_order_walks_the_ad_edge(self):
        """With p//i in the hypergraph, i is reachable from p directly;
        the fan-out attribute x is expanded only after i."""
        from repro.engine import plan_query

        query = self.query()
        order = plan_query(query, order="connected").order
        assert order.index("i") < order.index("x")
        stats = assert_sound(query, order)
        assert stats.max_intermediate == len(query.naive_join())

    def test_plan_carries_the_validation_decision(self):
        from repro.engine import plan_query

        query = self.query()
        plan = plan_query(query)
        assert dict(plan.validation) == validated_at(query, plan.order) \
            == {"X": None}
        forced = TestValueBoundBranchingNode().query()
        plan = plan_query(forced, order=("a", "b", "c", "x"))
        assert plan.validation == (("T", "c"),)


def test_value_edit_drops_the_indexes_behind_the_spliced_view():
    """A change_value splice re-installs the view; the value index (and
    with it the skip decision and the validator) must follow it."""
    from repro.updates.documents import DocumentEditor
    from repro.xml.columnar import columnar

    root = element("r")
    root.append(element("a", element("b", text="1"), text="7"))
    root.append(element("a", element("c", text="2"), text="8"))
    doc = XMLDocument(root)
    twig = parse_twig("a(/b, /c)", name="T")
    query = MultiModelQuery([], [TwigBinding(twig, doc)])
    assert validated_at(query) == {"T": None}
    assert len(xjoin(query)) == 0
    assert ("tag_dictionary", "a") in columnar(doc).derived

    second = doc.nodes("a")[1]
    DocumentEditor(doc).change_value(second, "7")  # now a duplicate
    assert ("tag_dictionary", "a") not in columnar(doc).derived
    assert validated_at(query) == {"T": "c"}
    assert xjoin(query) == query.naive_join() and len(xjoin(query)) == 0
    assert len(xjoin(query, validate_structure=False)) == 1
