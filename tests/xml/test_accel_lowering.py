"""Axis-pair property tests.

:func:`repro.xml.accel.axis_pairs` enumerates each twig edge's
``(pre, pre)`` pairs with a stack merge over two postings (XJoin's A-D
pair inputs are built from it). These tests
recompute every pair the slow way — walking the columnar ``parents``
and ``levels`` arrays — and demand set equality on the adversarial
shapes where stack algorithms break: deep single-tag chains (every
node nests in every other, the self-pairing trap), deep alternating
chains, wide flat fans (maximal posting length, zero nesting), and
branching documents repeating one tag along a path; predicate-filtered
streams are checked against a value-filtered oracle.
"""

from __future__ import annotations

import pytest

from repro.xml.accel import axis_pairs
from repro.xml.columnar import columnar
from repro.xml.generator import (
    chain_document,
    random_document,
    star_document,
)
from repro.xml.interface import get_twig_algorithm
from repro.xml.model import XMLDocument, element
from repro.xml.navigation import match_relation
from repro.xml.twig import Axis, TwigNode, TwigQuery

from accel_harness import seeded_rng


def _tag(view, nid: int) -> str:
    return view.tags[view.tag_ids[nid]]


def oracle_pairs(view, upper_tag: str, lower_tag: str,
                 axis: Axis) -> set[tuple[int, int]]:
    """Every axis pair recomputed from the parents/levels arrays."""
    pairs: set[tuple[int, int]] = set()
    for nid in range(view.size):
        if _tag(view, nid) != lower_tag:
            continue
        parent = view.parents[nid]
        if axis is Axis.CHILD:
            if parent >= 0 and _tag(view, parent) == upper_tag:
                pairs.add((view.starts[parent], view.starts[nid]))
        else:
            while parent >= 0:
                if _tag(view, parent) == upper_tag:
                    pairs.add((view.starts[parent], view.starts[nid]))
                parent = view.parents[parent]
    return pairs


def lowered_pairs(view, upper_tag: str, lower_tag: str,
                  axis: Axis) -> list[tuple[int, int]]:
    upper = TwigNode("u", tag=upper_tag)
    lower = upper.add("l", tag=lower_tag, axis=axis)
    return axis_pairs(view.stream(upper), view.stream(lower),
                      view.levels, axis)


def assert_axes_match_arrays(document, tags) -> None:
    """Both axes, every tag pair: stack merge == array walk, no dupes."""
    view = columnar(document)
    for upper_tag in tags:
        for lower_tag in tags:
            for axis in (Axis.CHILD, Axis.DESCENDANT):
                got = lowered_pairs(view, upper_tag, lower_tag, axis)
                assert len(got) == len(set(got)), \
                    (upper_tag, axis, lower_tag, "duplicate pairs")
                assert set(got) == oracle_pairs(view, upper_tag,
                                                lower_tag, axis), \
                    (upper_tag, axis, lower_tag)


class TestAdversarialShapes:
    def test_deep_same_tag_chain(self):
        """200 nested ``a`` nodes: every node contains every later one,
        and the strict push bound must keep self-pairs out."""
        document = chain_document(200, tags=("a",))
        view = columnar(document)
        descendants = lowered_pairs(view, "a", "a", Axis.DESCENDANT)
        assert len(descendants) == 200 * 199 // 2
        assert all(upper < lower for upper, lower in descendants)
        children = lowered_pairs(view, "a", "a", Axis.CHILD)
        assert len(children) == 199
        assert_axes_match_arrays(document, ("root", "a"))

    def test_deep_alternating_chain(self):
        """Repeated tags along one path: a/b/a/b... 120 deep."""
        document = chain_document(120, tags=("a", "b"))
        assert_axes_match_arrays(document, ("root", "a", "b"))

    def test_wide_fan(self):
        """A 400-child flat star: long postings, no nesting at all."""
        document = star_document(400, child_tag="item")
        view = columnar(document)
        assert len(lowered_pairs(view, "root", "item", Axis.CHILD)) == 400
        assert lowered_pairs(view, "item", "item", Axis.DESCENDANT) == []
        assert_axes_match_arrays(document, ("root", "item"))

    def test_branching_repeated_tags(self):
        """One tag recurring on several root-to-leaf paths at once."""
        tree = element(
            "a",
            element("b",
                    element("a",
                            element("b", element("a", text="1")),
                            element("a", text="2"))),
            element("a", element("b", text="3")),
            element("b", text="4"),
        )
        assert_axes_match_arrays(XMLDocument(tree), ("a", "b"))

    @pytest.mark.parametrize("round_", range(6))
    def test_random_documents(self, round_):
        rng = seeded_rng(f"lowering:{round_}")
        for _ in range(3):
            document = random_document(rng, max_nodes=60, max_depth=8)
            assert_axes_match_arrays(document, ("a", "b", "c", "d"))


class TestPredicatesAndFullRuns:
    def test_pairs_respect_value_predicates(self):
        """The candidate stream filters before the merge: pairs whose
        child value fails the predicate never appear."""
        document = star_document(60, child_tag="item")
        view = columnar(document)
        parent = TwigNode("r", tag="root")
        child = parent.child("it", tag="item",
                             predicate=lambda v: isinstance(v, int)
                             and v < 10)
        pairs = axis_pairs(view.stream(parent), view.stream(child),
                           view.levels, child.axis)
        expected = {(view.starts[view.parents[nid]], view.starts[nid])
                    for nid in range(view.size)
                    if _tag(view, nid) == "item"
                    and isinstance(view.values[nid], int)
                    and view.values[nid] < 10}
        assert set(pairs) == expected
        assert len(pairs) == 10

    def test_accel_matches_oracle_on_adversarial_documents(self):
        """Full accel runs on the stack-hostile shapes."""
        accel = get_twig_algorithm("accel")
        for document in (chain_document(80, tags=("a",)),
                         chain_document(81, tags=("a", "b")),
                         star_document(120, child_tag="item")):
            for pattern_root in ("a", "root", "item"):
                root = TwigNode("x", tag=pattern_root)
                root.descendant("y", tag="a")
                twig = TwigQuery(root)
                assert accel.run(document, twig) \
                    == match_relation(document, twig), pattern_root
