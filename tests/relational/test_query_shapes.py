"""Every join evaluator agrees with the naive oracle on named query shapes.

The hypothesis test in ``test_wcoj.py`` draws random schemas; this table
pins the classic shapes one by one (paths, cycles, cliques, stars, the
Loomis-Whitney query, products, empty and string-valued inputs), so a
failure names the shape and the evaluator at once. The evaluators are
the relational front-ends, both binary plans of the baseline, and the
engine's ``run_query`` under each registered operator.
"""

import random

import pytest

from repro.core.multimodel import MultiModelQuery
from repro.engine import run_query
from repro.instrumentation import JoinStats
from repro.relational.generic_join import generic_join
from repro.relational.leapfrog import leapfrog_triejoin
from repro.relational.operators import naive_multiway_join
from repro.relational.plans import execute_plan, greedy_plan, left_deep_plan
from repro.relational.relation import Relation


def _graph(seed=7, vertices=9, density=0.4):
    """A fixed random directed graph, as a list of edges."""
    rng = random.Random(seed)
    return [(u, v) for u in range(vertices) for v in range(vertices)
            if u != v and rng.random() < density]


EDGES = _graph()


def _edge(name, schema):
    return Relation(name, schema, EDGES)


def _triples(name, schema, seed):
    rng = random.Random(seed)
    return Relation(name, schema, {(rng.randrange(4), rng.randrange(4),
                                    rng.randrange(4)) for _ in range(30)})


SHAPES = {
    "two_hop_path": lambda: [_edge("R", ("a", "b")), _edge("S", ("b", "c"))],
    "three_hop_path": lambda: [_edge("R", ("a", "b")), _edge("S", ("b", "c")),
                               _edge("T", ("c", "d"))],
    "triangle": lambda: [_edge("R", ("a", "b")), _edge("S", ("b", "c")),
                         _edge("T", ("a", "c"))],
    "four_cycle": lambda: [_edge("R", ("a", "b")), _edge("S", ("b", "c")),
                           _edge("T", ("c", "d")), _edge("U", ("a", "d"))],
    "four_clique": lambda: [_edge(f"E{x}{y}", (x, y))
                            for x, y in ["ab", "ac", "ad", "bc", "bd", "cd"]],
    "bowtie": lambda: [_edge("R", ("a", "b")), _edge("S", ("b", "c")),
                       _edge("T", ("a", "c")), _edge("U", ("a", "d")),
                       _edge("V", ("d", "e")), _edge("W", ("a", "e"))],
    "skewed_star": lambda: [
        Relation(name, ("h", leaf), [(0, i) for i in range(12)]
                 + [(i, i) for i in range(1, 5)])
        for name, leaf in [("R", "x"), ("S", "y"), ("T", "z")]],
    "loomis_whitney": lambda: [_triples("R", ("a", "b", "c"), 1),
                               _triples("S", ("a", "b", "d"), 2),
                               _triples("T", ("a", "c", "d"), 3),
                               _triples("U", ("b", "c", "d"), 4)],
    "unary_filter": lambda: [_edge("R", ("a", "b")),
                             Relation("S", ("b",), [(1,), (4,), (8,)])],
    "cross_product": lambda: [Relation("R", ("a",), [(1,), (2,), (3,)]),
                              Relation("S", ("b", "c"), [(1, "x"), (2, "y")])],
    "empty_input": lambda: [_edge("R", ("a", "b")), _edge("S", ("b", "c")),
                            Relation("T", ("a", "c"))],
    "string_values": lambda: [
        Relation("Flight", ("origin", "hub"),
                 [("AMS", "FRA"), ("CDG", "FRA"), ("LHR", "JFK"),
                  ("AMS", "JFK")]),
        Relation("Connection", ("hub", "dest"),
                 [("FRA", "NRT"), ("FRA", "SIN"), ("JFK", "SFO")]),
        Relation("Open", ("dest",), [("NRT",), ("SFO",)])],
}


def _attributes(relations):
    seen = []
    for relation in relations:
        for attribute in relation.schema:
            if attribute not in seen:
                seen.append(attribute)
    return tuple(seen)


def _binary(plan_for):
    def run(relations, attributes):
        named = {relation.name: relation for relation in relations}
        return execute_plan(plan_for(relations, named), named, stats=JoinStats())
    return run


EVALUATORS = {
    "generic_join": lambda rels, attrs: generic_join(rels, attrs),
    "leapfrog_reversed_order": lambda rels, attrs: leapfrog_triejoin(
        rels, attrs[::-1]),
    "greedy_plan": _binary(lambda rels, named: greedy_plan(named)),
    "left_deep_plan": _binary(
        lambda rels, named: left_deep_plan([r.name for r in rels])),
    "engine_xjoin": lambda rels, attrs: run_query(MultiModelQuery(rels),
                                                  algorithm="xjoin"),
    "engine_baseline": lambda rels, attrs: run_query(MultiModelQuery(rels),
                                                     algorithm="baseline"),
}


@pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_evaluator_matches_naive_oracle(shape, evaluator):
    relations = SHAPES[shape]()
    attributes = _attributes(relations)
    expected = set(naive_multiway_join(relations).project(attributes))
    result = EVALUATORS[evaluator](relations, attributes)
    assert set(result.schema) == set(attributes)
    assert set(result.project(attributes)) == expected


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shape_result_is_as_large_as_intended(shape):
    """Guards the table against vacuous cases: only ``empty_input`` may
    join to nothing, and every other shape keeps rows to compare."""
    relations = SHAPES[shape]()
    size = len(naive_multiway_join(relations))
    if shape == "empty_input":
        assert size == 0
    else:
        assert size > 0
