"""Cross-algorithm twig parity: every registered matcher, same answers.

The registry-level companion to ``test_twig_matching``: all registered
:class:`TwigAlgorithm` implementations (and the node-object reference
matchers of ``reference_oracle``) must produce identical match sets
over random twigs × XMark documents, including the P-C-only and A-D-only
edge cases where their optimality properties differ.
"""

import random

import pytest

from repro.xml.algorithms import match_twig
from repro.xml.interface import (
    available_twig_algorithms,
    get_twig_algorithm,
)
from repro.xml.navigation import match_embeddings, match_relation
from repro.xml.twig import Axis, TwigNode, TwigQuery
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_document

from reference_oracle import (
    reference_tjfast_embeddings,
    reference_twig_stack_embeddings,
)

XMARK_TAGS = ["open_auction", "bidder", "personref", "itemref", "increase",
              "person", "profile", "interest", "item", "incategory",
              "current", "name"]


def match_set(embeddings):
    """Hashable form of node embeddings for set comparison."""
    return {
        tuple(sorted((name, node.start) for name, node in emb.items()))
        for emb in embeddings
    }


def random_xmark_twig(rng: random.Random, *,
                      axes=(Axis.CHILD, Axis.DESCENDANT)) -> TwigQuery:
    root = TwigNode("n0", tag=rng.choice(XMARK_TAGS))
    nodes = [root]
    for index in range(rng.randint(1, 4)):
        parent = rng.choice(nodes)
        child = parent.add(f"n{index + 1}", tag=rng.choice(XMARK_TAGS),
                           axis=rng.choice(axes))
        nodes.append(child)
    return TwigQuery(root)


def assert_all_algorithms_agree(document, twig):
    expected = match_set(match_embeddings(document, twig))
    expected_relation = match_relation(document, twig)
    for name in available_twig_algorithms():
        algorithm = get_twig_algorithm(name)
        if not algorithm.supports(twig):
            continue
        got = match_set(algorithm.embeddings(document, twig))
        assert got == expected, (name, twig)
        assert algorithm.run(document, twig) == expected_relation, \
            (name, twig)
    # The node-object reference implementations must agree too.
    assert match_set(reference_twig_stack_embeddings(document, twig)) \
        == expected
    assert match_set(reference_tjfast_embeddings(document, twig)) \
        == expected


class TestRegistry:
    def test_builtins_registered(self):
        assert available_twig_algorithms() == [
            "accel", "naive", "pathstack", "structural", "tjfast",
            "twigstack"]

    def test_unknown_name_raises(self):
        from repro.errors import TwigError

        with pytest.raises(TwigError, match="unknown twig algorithm"):
            get_twig_algorithm("nope")

    def test_pathstack_rejects_branching(self):
        branching = parse_twig("a(/b, /c)")
        linear = parse_twig("a(/b(/c))")
        pathstack = get_twig_algorithm("pathstack")
        assert not pathstack.supports(branching)
        assert pathstack.supports(linear)

    def test_match_twig_planned_and_explicit(self):
        document = xmark_document(0.05, seed=2)
        twig = parse_twig("oa=open_auction(/ir=itemref, //pr=personref)")
        expected = match_relation(document, twig)
        assert match_twig(document, twig) == expected
        assert match_twig(document, twig, algorithm="structural") == expected


class TestXMarkParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_twigs_mixed_axes(self, seed):
        rng = random.Random(seed)
        document = xmark_document(0.04, seed=seed)
        for _ in range(4):
            assert_all_algorithms_agree(document, random_xmark_twig(rng))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_twigs_pc_only(self, seed):
        """Parent-child-only twigs: the case where TwigStack may produce
        useless path solutions — answers must still agree."""
        rng = random.Random(100 + seed)
        document = xmark_document(0.04, seed=seed)
        for _ in range(4):
            twig = random_xmark_twig(rng, axes=(Axis.CHILD,))
            assert_all_algorithms_agree(document, twig)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_twigs_ad_only(self, seed):
        """Ancestor-descendant-only twigs: TwigStack's optimal case."""
        rng = random.Random(200 + seed)
        document = xmark_document(0.04, seed=seed)
        for _ in range(4):
            twig = random_xmark_twig(rng, axes=(Axis.DESCENDANT,))
            assert_all_algorithms_agree(document, twig)

    def test_fixed_xmark_workloads(self):
        document = xmark_document(0.2, seed=11)
        for pattern in (
                "oa=open_auction(/ir=itemref, //pr=personref)",
                "p=person(/nm=name, //i=interest)",
                "rg=regions(//it=item(/ic=incategory))",
                "oa=open_auction(//bd=bidder(/inc=increase))",
                "site(//p=person(/prof=profile(//i=interest)))",
        ):
            assert_all_algorithms_agree(document, parse_twig(pattern))

    def test_value_predicates(self):
        document = xmark_document(0.1, seed=5)
        root = TwigNode("oa", tag="open_auction")
        root.descendant("inc", tag="increase",
                        predicate=lambda v: isinstance(v, int) and v > 25)
        twig = TwigQuery(root)
        assert_all_algorithms_agree(document, twig)


class TestParallelCrossTwig:
    """Every registered matcher agrees with its partition-parallel run
    (the full matrix lives in ``tests/parallel/test_parallel_parity``)."""

    @pytest.mark.usefixtures("small_chunks")
    def test_parallel_matchers_agree(self):
        from repro.parallel.executor import ParallelExecutor

        document = xmark_document(0.2, seed=11)
        twig = parse_twig("p=person(/nm=name, //i=interest)")
        expected = match_relation(document, twig)
        executor = ParallelExecutor(2)
        for name in available_twig_algorithms():
            algorithm = get_twig_algorithm(name)
            if not algorithm.supports(twig):
                continue
            assert executor.run_twig(document, twig, name) == expected, name
