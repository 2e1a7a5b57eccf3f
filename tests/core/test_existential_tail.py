"""Existential twig nodes: tested last, enumerated anywhere else.

A twig node that joins nothing outside its twig and whose candidates are
all valueless yields a ``None`` column, so under set semantics a prefix
tuple needs one witness of it. XJoin tests for that witness when the
node is expanded last and no structure check waits on its code, and
enumerates it — as it always did — everywhere else. On every seeded
instance and every order both must return exactly the naive answer, with
no stage above the enumerating kernel's or above ``size_bound()``.

Randomized cases derive from ``REPRO_PUSHDOWN_SEED``.
"""

from __future__ import annotations

from itertools import permutations

import pytest
from pushdown_harness import PUSHDOWN_SEED, relaxed_then_naive, seeded_rng

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.core.xjoin import xjoin
from repro.data.random_instances import random_relation, random_twig
from repro.engine import EncodedInstance, get_algorithm, plan_query, run_query
from repro.instrumentation import JoinStats
from repro.parallel.morsels import fork_available
from repro.relational.relation import Relation
from repro.xml.generator import random_document
from repro.xml.model import XMLDocument, element
from repro.xml.twig_parser import parse_twig

SEED_NOTE = f"(REPRO_PUSHDOWN_SEED={PUSHDOWN_SEED})"
TAGS = ["c", "x", "y"]  # c: the container tag that loses its text


def container_instance(case, share=1.0):
    """A seeded document x twig x relation whose twig has a ``c`` node
    no relation binds; *share* of the document's ``c`` nodes are
    valueless (1.0: the node is existential)."""
    rng = seeded_rng(("existential", case, share))
    root = random_document(rng, tags=TAGS, max_nodes=24,
                           value_range=2).root.copy()
    for node in root.iter():
        if node.tag == "c" and rng.random() < share:
            node.text = ""
    twig = random_twig(rng, TAGS, max_nodes=4)
    nodes = twig.nodes()
    if not any(node.tag == "c" for node in nodes):
        rng.choice(nodes).tag = "c"
    valued = [node.name for node in nodes if node.tag != "c"]
    pool = valued + ["extra"]
    relation = random_relation(rng, "R", rng.sample(pool, rng.randint(
        1, min(2, len(pool)))), value_range=2)
    return MultiModelQuery([relation],
                           [TwigBinding(twig, XMLDocument(root))],
                           name=f"case{case}")


def stages(stats):
    return {record.label: record.size for record in stats.stages}


def check_order(query, order, naive, note):
    """Rows and stages of the default path at one explicit order;
    returns the attribute it tested (None: everything enumerated)."""
    note = f"{note} order={order!r} {SEED_NOTE}"
    pushed = JoinStats()
    assert xjoin(query, order, stats=pushed) == naive, f"rows {note}"
    assert relaxed_then_naive(query, order) == naive, f"relaxed rows {note}"
    instance = EncodedInstance.from_query(query, order)
    tested = instance.twig_filters.tested
    instance.twig_filters.tested = None  # the enumerating kernel
    enumerated = JoinStats()
    assert get_algorithm("xjoin").run(instance, stats=enumerated) == naive, \
        f"enumerated rows {note}"
    old = stages(enumerated)
    for label, size in stages(pushed).items():
        assert size <= old[label], \
            f"stage {label!r}: {size} > enumerated {old[label]} {note}"
    bound = query.size_bound().bound_ceiling
    assert pushed.max_intermediate <= bound, f"bound {bound} {note}"
    if tested is not None:
        assert tested == order[-1], note
        sizes = pushed.stage_sizes()
        assert len(sizes) < 2 or sizes[-1] <= sizes[-2], \
            f"a test grew the frontier: {sizes} {note}"
    return tested


@pytest.mark.parametrize("case", range(40))
def test_every_order_of_an_existential_node(case):
    query = container_instance(case)
    naive = query.naive_join()
    existential = {node.name for node in query.twigs[0].twig.nodes()
                   if node.tag == "c"}
    for order in permutations(query.attributes):
        tested = check_order(query, order, naive, f"case {case}")
        assert tested is None or tested in existential


def test_the_generator_reaches_the_test():
    """Some seeded (instance, order) pairs do test — with rows to show
    for it — and every position of the node is covered by the sweep."""
    hits = 0
    for case in range(40):
        query = container_instance(case)
        naive = query.naive_join()
        for order in permutations(query.attributes):
            instance = EncodedInstance.from_query(query, order)
            hits += bool(instance.twig_filters.tested and naive.rows)
    assert hits >= 10, f"{hits} tested runs with rows {SEED_NOTE}"


def test_the_only_attribute():
    some = XMLDocument(element("r", element("c"), element("c")))
    none = XMLDocument(element("r", element("x", text="1")))
    for document, rows in ((some, {(None,)}), (none, set())):
        query = MultiModelQuery([], [TwigBinding(parse_twig("c"), document)])
        stats = JoinStats()
        assert set(xjoin(query, stats=stats)) == rows
        assert query.naive_join().rows == rows
        assert plan_query(query).tested == ("c" if rows else None)
        assert stats.max_intermediate <= 1


@pytest.mark.parametrize("case", range(20))
def test_a_tag_with_valued_and_valueless_nodes_is_enumerated(case):
    """Identities after values in one code space; a real value among
    the candidates means a real output column: no test."""
    query = container_instance(case, share=0.5)
    naive = query.naive_join()
    valued = any(node.value is not None
                 for node in query.twigs[0].document.nodes("c"))
    for order in permutations(query.attributes):
        tested = check_order(query, order, naive, f"mixed case {case}")
        assert tested is None or not valued, f"{order!r} {SEED_NOTE}"


def test_a_scheduled_check_keeps_the_last_level_enumerated():
    """``TestValueBoundBranchingNode``'s shape under a valueless root:
    the twig needs its structure check, which reads the code of the
    level it runs at — so ``r``, existential and last, is enumerated
    and validated, not tested."""
    root = element("r")
    for i in range(3):
        root.append(element("a", element("b", text=str(i)), text="7"))
        root.append(element("a", element("c", text=str(i)), text="7"))
    root.append(element("a", element("b", text="9"), element("c", text="9"),
                        text="7"))
    relation = Relation("R", ("x", "b"),
                        [(x, b) for x in range(3) for b in (0, 1, 2, 9)])
    query = MultiModelQuery([relation], [TwigBinding(
        parse_twig("r(/a(/b, /c))", name="T"), XMLDocument(root))])
    order = ("x", "b", "a", "c", "r")
    instance = EncodedInstance.from_query(query, order)
    assert instance.twig_filters.validated_at == {"T": "r"}
    assert instance.twig_filters.tested is None
    assert plan_query(query, order=order).tested is None
    stats = JoinStats()
    assert xjoin(query, order, stats=stats) == query.naive_join()
    assert stats.filtered == 45 and stats.emitted == 3
    # Without the check there is nothing to wait for: the relaxed join
    # tests, and differs from its enumerating twin in stages only.
    relaxed = EncodedInstance.from_query(query, order,
                                         validate_structure=False)
    assert relaxed.twig_filters.tested == "r"
    tested_rows = get_algorithm("xjoin").run(relaxed)
    relaxed.twig_filters.tested = None
    assert get_algorithm("xjoin").run(relaxed) == tested_rows
    assert len(tested_rows) > len(query.naive_join())


class TestDBLP:
    def query(self, records=600):
        from repro.data.dblp import dblp_document, dblp_query

        return dblp_query(dblp_document(records, seed=PUSHDOWN_SEED % 1000))

    def test_articles_are_tested_not_enumerated(self):
        query = self.query()
        plan = plan_query(query)
        assert plan.order[-1] == plan.tested == "a"
        stats = JoinStats()
        rows = run_query(query, stats=stats)
        assert rows == query.naive_join()
        articles = len(query.twigs[0].document.nodes("article"))
        assert len(rows) <= stats.max_intermediate <= 30 * 5 < articles
        enumerated = JoinStats()
        assert run_query(query, order=("a", "j", "y", "era"),
                         stats=enumerated) == rows
        assert enumerated.max_intermediate == articles

    @pytest.mark.skipif(not fork_available(),
                        reason="twig-bearing instances ship by fork only")
    def test_two_workers_agree(self):
        query = self.query()
        assert run_query(query, workers=2) == run_query(query)

    def test_no_surrogate_object_and_no_merge_on_identity(self, monkeypatch):
        from repro.core.surrogate import NodeSurrogate
        from repro.engine import encoded

        made, merged = [], []
        init, merge = NodeSurrogate.__init__, encoded.merge_dictionaries
        monkeypatch.setattr(
            NodeSurrogate, "__init__",
            lambda self, start: made.append(start) or init(self, start))
        monkeypatch.setattr(
            encoded, "merge_dictionaries",
            lambda local: merged.append(local[0].attribute) or merge(local))
        query = self.query()
        assert len(run_query(query)) > 0
        assert run_query(query, order=("a", "j", "y", "era")) \
            == run_query(query)
        assert not made
        assert set(merged) == {"y"}  # eras.y with the path's years
        # Decoding an identity un-erased is what makes the object.
        instance = EncodedInstance.from_query(query, plan_query(query).order)
        value = instance.decode_value(instance.order.index("a"), 0)
        assert isinstance(value, NodeSurrogate) and made == [value.start]
