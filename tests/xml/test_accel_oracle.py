"""The seeded cross-backend differential oracle for the accelerator.

Every randomized case derives from ``REPRO_ACCEL_SEED`` (echoed in the
pytest header and in every assertion message, like the update oracle's
``REPRO_UPDATE_SEED``). For random twigs × XMark documents — mixed
axes, P-C-only, A-D-only, single-node, and value-predicate shapes —
the relational accelerator's rows must be byte-identical to every
registered matcher's, and the planner's estimates (domain sizes, path
cardinalities, the resulting :class:`QueryPlan`) must be byte-identical
no matter which backend just ran: the accelerator flows through the
same statistics caches as everyone else and must not perturb them.
"""

from __future__ import annotations

import pytest

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.engine.planner import (
    choose_twig_algorithm,
    plan_query,
    statistics_for,
)
from repro.xml.interface import (
    available_twig_algorithms,
    get_twig_algorithm,
)
from repro.xml.navigation import match_embeddings, match_relation
from repro.xml.twig import Axis, TwigNode, TwigQuery
from repro.xml.xmark import xmark_document

from accel_harness import (
    ACCEL_SEED,
    int_predicate,
    random_accel_twig,
    seeded_rng,
)


def match_set(embeddings):
    """Hashable form of node embeddings for set comparison."""
    return {
        tuple(sorted((name, node.start) for name, node in emb.items()))
        for emb in embeddings
    }


def planner_fingerprint(document, twig) -> str:
    """Byte-exact snapshot of everything the planner derives for the
    twig: domain estimates, per-node candidate domains, and the full
    plan."""
    query = MultiModelQuery((), (TwigBinding(twig, document),),
                            name="accel_oracle")
    stats = statistics_for(query)
    plan = plan_query(query)
    return repr((sorted(stats.domain_estimates().items()),
                 sorted(stats.twig_domains().items()),
                 plan))


def assert_accel_oracle(document, twig, context: str):
    """Rows, embeddings and planner estimates vs every backend."""
    note = f"{context} (REPRO_ACCEL_SEED={ACCEL_SEED})"
    accel = get_twig_algorithm("accel")
    accel_rows = accel.run(document, twig)
    reference = match_relation(document, twig)
    assert repr(accel_rows.sorted_rows()) \
        == repr(reference.sorted_rows()), \
        f"accel rows diverged from the navigation oracle at {note}"
    expected = match_set(match_embeddings(document, twig))
    assert match_set(accel.embeddings(document, twig)) == expected, \
        f"accel embeddings diverged at {note}"
    baseline = planner_fingerprint(document, twig)
    for name in available_twig_algorithms():
        algorithm = get_twig_algorithm(name)
        if not algorithm.supports(twig):
            continue
        rival = algorithm.run(document, twig)
        assert repr(rival.sorted_rows()) \
            == repr(accel_rows.sorted_rows()), \
            f"{name!r} rows diverged from accel at {note}"
        assert match_set(algorithm.embeddings(document, twig)) \
            == expected, f"{name!r} embeddings diverged at {note}"
        assert planner_fingerprint(document, twig) == baseline, \
            f"planner estimates shifted after {name!r} ran at {note}"


class TestAccelOracle:
    @pytest.mark.parametrize("round_", range(8))
    def test_random_mixed_axes(self, round_):
        rng = seeded_rng(f"mixed:{round_}")
        document = xmark_document(0.04, seed=rng.randint(0, 999))
        for index in range(3):
            twig = random_accel_twig(rng, predicate_rate=0.4)
            assert_accel_oracle(document, twig,
                                f"mixed round {round_}.{index}")

    @pytest.mark.parametrize("round_", range(4))
    def test_random_pc_only(self, round_):
        """P-C-only twigs: every edge lowered through the level check."""
        rng = seeded_rng(f"pc:{round_}")
        document = xmark_document(0.04, seed=rng.randint(0, 999))
        for index in range(3):
            twig = random_accel_twig(rng, axes=(Axis.CHILD,),
                                     predicate_rate=0.3)
            assert_accel_oracle(document, twig,
                                f"pc round {round_}.{index}")

    @pytest.mark.parametrize("round_", range(4))
    def test_random_ad_only(self, round_):
        """A-D-only twigs: pure containment edges, no level predicate."""
        rng = seeded_rng(f"ad:{round_}")
        document = xmark_document(0.04, seed=rng.randint(0, 999))
        for index in range(3):
            twig = random_accel_twig(rng, axes=(Axis.DESCENDANT,),
                                     predicate_rate=0.3)
            assert_accel_oracle(document, twig,
                                f"ad round {round_}.{index}")

    def test_single_node_twigs(self):
        """Single-node twigs lower to a unary relation (no edge atoms)."""
        rng = seeded_rng("single")
        document = xmark_document(0.05, seed=rng.randint(0, 999))
        for tag in ("open_auction", "personref", "interest", "name"):
            assert_accel_oracle(document,
                                TwigQuery(TwigNode("n", tag=tag)),
                                f"single node {tag}")
        root = TwigNode("n", tag="increase",
                        predicate=int_predicate(rng))
        assert_accel_oracle(document, TwigQuery(root),
                            "single node with predicate")

    def test_value_predicate_branching(self):
        """The planner's accel shape: branching, two predicates."""
        rng = seeded_rng("predicates")
        document = xmark_document(0.08, seed=rng.randint(0, 999))
        root = TwigNode("oa", tag="open_auction")
        bidder = root.descendant("bd", tag="bidder")
        bidder.child("inc", tag="increase",
                     predicate=lambda v: isinstance(v, int) and v > 25)
        bidder.child("pr", tag="personref",
                     predicate=lambda v: isinstance(v, int) and v < 10)
        twig = TwigQuery(root)
        assert choose_twig_algorithm(document, twig) == "accel"
        assert_accel_oracle(document, twig, "two-predicate branching")

    def test_empty_results_agree(self):
        """An unsatisfiable predicate: every backend returns no rows."""
        document = xmark_document(0.05, seed=3)
        root = TwigNode("oa", tag="open_auction")
        root.descendant("inc", tag="increase",
                        predicate=lambda v: isinstance(v, int)
                        and v > 10**9)
        root.child("ir", tag="itemref",
                   predicate=lambda v: False)
        assert_accel_oracle(document, TwigQuery(root),
                            "unsatisfiable predicates")


class TestPlannerRouting:
    def test_branching_predicates_route_to_accel(self):
        document = xmark_document(0.05, seed=1)
        root = TwigNode("p", tag="person")
        root.child("pr", tag="personref",
                   predicate=lambda v: isinstance(v, int))
        root.descendant("i", tag="interest",
                        predicate=lambda v: isinstance(v, int))
        assert choose_twig_algorithm(document, TwigQuery(root)) \
            == "accel"

    def test_linear_predicates_plan_accel(self):
        """Linear paths plan accel too: pathstack wins nowhere."""
        document = xmark_document(0.05, seed=1)
        root = TwigNode("oa", tag="open_auction",
                        predicate=lambda v: True)
        bd = root.descendant("bd", tag="bidder",
                             predicate=lambda v: True)
        bd.child("inc", tag="increase",
                 predicate=lambda v: isinstance(v, int))
        assert choose_twig_algorithm(document, TwigQuery(root)) \
            == "accel"
