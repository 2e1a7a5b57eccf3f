"""Tests for attribute-order planning and twig structure validation."""

import pytest

from repro.core.multimodel import MultiModelQuery, TwigBinding, \
    _decomposition
from repro.core.surrogate import NodeSurrogate
from repro.core.validation import (
    StructureValidator,
    join_implies_embedding,
    validation_points,
)
from repro.data.synthetic import example34_instance, example34_relations
from repro.engine.planner import (
    appearance_order,
    attribute_order,
    connected_order,
    domain_order,
    functional_next,
    linked_attributes,
)
from repro.errors import PlanError
from repro.relational.relation import Relation
from repro.xml.model import XMLDocument, element
from repro.xml.twig_parser import parse_twig


@pytest.fixture
def instance():
    return example34_instance(3)


class TestPlanner:
    def test_appearance_order(self, instance):
        order = appearance_order(instance.query)
        assert order == ("A", "B", "C", "D", "E", "F", "G", "H")

    def test_domain_order_is_permutation(self, instance):
        order = domain_order(instance.query)
        assert sorted(order) == sorted(instance.query.attributes)
        # A has domain {0}: it must come first.
        assert order[0] == "A"

    def test_connected_order_is_permutation(self, instance):
        order = connected_order(instance.query)
        assert sorted(order) == sorted(instance.query.attributes)

    def test_connected_order_stays_connected(self, instance):
        order = connected_order(instance.query)
        graph = instance.query.hypergraph(with_cardinalities=False)
        bound = {order[0]}
        for attribute in order[1:]:
            touches = any(
                bound & set(edge.vertices)
                for edge in graph.edges_covering(attribute))
            assert touches, f"{attribute} expanded disconnected"
            bound.add(attribute)

    def test_linked_attributes_read_the_joined_hypergraph(self, instance):
        """Per attribute, the union of the edges of
        ``hypergraph(ad_pairs=True)`` that cover it: relations, P-C
        paths and the A-D pair inputs."""
        for query in (instance.query, MultiModelQuery(
                [Relation("R", ("x", "i"), [(1, 2)])],
                [TwigBinding(parse_twig("p=person(/nm=name, //i=interest)"),
                             XMLDocument(element("person")))])):
            graph = query.hypergraph(with_cardinalities=False, ad_pairs=True)
            assert linked_attributes(query) == {
                a: frozenset().union(*(edge.vertices
                                       for edge in graph.edges_covering(a)))
                for a in query.attributes}

    def test_attribute_order_dispatch(self, instance):
        # Each C has one E child and each F one H child: both functional
        # children move to right after their parent. A has three D
        # children, so D stays.
        assert appearance_order(instance.query) == \
            ("A", "B", "C", "D", "E", "F", "G", "H")
        assert attribute_order(instance.query) == \
            ("A", "B", "C", "E", "D", "F", "H", "G")
        assert attribute_order(instance.query, "domain") == \
            functional_next(instance.query, domain_order(instance.query))
        explicit = tuple(reversed(instance.query.attributes))
        assert attribute_order(instance.query, explicit) == explicit

    def test_attribute_order_without_functional_children(self, instance):
        # D sits after the A-D edge's parent with C between, but A has
        # three D children: the default is the raw appearance order.
        query = MultiModelQuery(
            example34_relations(3)[:1],
            [TwigBinding(parse_twig("A(/B, //C, /D)"), instance.document)])
        assert attribute_order(query) == appearance_order(query) == \
            ("A", "B", "C", "D")

    def test_bad_policy_raises(self, instance):
        with pytest.raises(PlanError):
            attribute_order(instance.query, "alphabetical")

    def test_incomplete_explicit_order_raises(self, instance):
        with pytest.raises(PlanError):
            attribute_order(instance.query, ("A",))

    def test_connected_order_handles_disconnected_queries(self):
        r = Relation("R", ("a",), [(1,)])
        s = Relation("S", ("z",), [(2,)])
        query = MultiModelQuery([r, s])
        assert sorted(connected_order(query)) == ["a", "z"]


def branch_document():
    root = element("r")
    a1 = element("a", element("b", text="10"), text="1")
    a2 = element("a", text="2")
    root.append(a1)
    root.append(a2)
    return XMLDocument(root)


class TestStructureValidator:
    """Values are aligned with the twig's pre-order attributes."""

    def test_accepts_real_embedding(self):
        doc = branch_document()
        twig = parse_twig("a(//b)")
        validator = StructureValidator(doc, twig)
        assert validator.embeds((1, 10))

    def test_rejects_value_mix(self):
        doc = branch_document()
        twig = parse_twig("a(//b)")
        validator = StructureValidator(doc, twig)
        assert not validator.embeds((2, 10))
        assert not validator.embeds((1, 99))

    def test_pc_vs_ad_distinction(self):
        doc = branch_document()
        pc_twig = parse_twig("r(/b)")
        validator = StructureValidator(doc, pc_twig)
        assert not validator.embeds((None, 10))
        ad_twig = parse_twig("r(//b)")
        validator = StructureValidator(doc, ad_twig)
        assert validator.embeds((None, 10))

    def test_surrogate_binds_one_node(self):
        doc = branch_document()
        a1, a2 = doc.nodes("a")
        validator = StructureValidator(doc, parse_twig("a(//b)"))
        assert validator.embeds((NodeSurrogate(a1.start), 10))
        assert not validator.embeds((NodeSurrogate(a2.start), 10))
        # A surrogate of a node with another tag is no image at all.
        b = doc.nodes("b")[0]
        assert not validator.embeds((NodeSurrogate(b.start), 10))

    def test_branches_must_share_their_node(self):
        root = element("r")
        root.append(element("a", element("b", text="1"), text="7"))
        root.append(element("a", element("c", text="2"), text="7"))
        doc = XMLDocument(root)
        validator = StructureValidator(doc, parse_twig("a(/b, /c)"))
        assert not validator.embeds((7, 1, 2))
        root.append(element("a", element("b", text="1"),
                            element("c", text="2"), text="7"))
        doc = XMLDocument(root)
        validator = StructureValidator(doc, parse_twig("a(/b, /c)"))
        assert validator.embeds((7, 1, 2))

    def test_value_predicate_is_enforced(self):
        from repro.xml.twig import TwigNode, TwigQuery

        doc = branch_document()
        a = TwigNode("a", tag="a")
        a.descendant("b", tag="b", predicate=lambda v: v > 10)
        validator = StructureValidator(doc, TwigQuery(a))
        assert not validator.embeds((1, 10))

    def test_admits_decodes_and_memoises_on_codes(self):
        doc = branch_document()
        validator = StructureValidator(doc, parse_twig("a(//b)"),
                                       tables=[(1, 2), (10,)])
        assert validator.admits((0, 0))
        assert validator.admits((0, 0))
        assert not validator.admits((1, 0))
        assert validator.cache_size == 2

    def test_index_hangs_off_the_view(self):
        from repro.xml.columnar import columnar

        doc = branch_document()
        StructureValidator(doc, parse_twig("a(//b)"))
        view = columnar(doc)
        index = view.derived[("value_index", "a")]
        StructureValidator(doc, parse_twig("a(//b)"))
        assert view.derived[("value_index", "a")] is index


class TestStaticSkip:
    def decision(self, doc, pattern, relations=()):
        query = MultiModelQuery(list(relations),
                                [TwigBinding(parse_twig(pattern), doc)])
        binding = query.twigs[0]
        return join_implies_embedding(
            doc, _decomposition(binding.twig),
            query.structural_attributes(binding))

    def test_surrogate_bound_branching_node_skips(self):
        root = element("r")
        for i in range(3):
            root.append(element("line", element("isbn", text="x"),
                                element("price", text=str(i % 2))))
        assert self.decision(XMLDocument(root), "line(/isbn, /price)")

    def test_value_bound_branching_node_with_duplicates_validates(self):
        root = element("r")
        root.append(element("a", element("b", text="1"), text="7"))
        root.append(element("a", element("c", text="2"), text="7"))
        assert not self.decision(XMLDocument(root), "a(/b, /c)")

    def test_value_bound_branching_node_with_unique_values_skips(self):
        root = element("r")
        root.append(element("a", element("b", text="1"), text="7"))
        root.append(element("a", element("c", text="2"), text="8"))
        assert self.decision(XMLDocument(root), "a(/b, /c)")

    def test_joined_valueless_node_is_not_identity_bound(self):
        """Joined with a relation, ``line`` is no longer structural: its
        None values conflate the nodes again."""
        root = element("r")
        for i in range(2):
            root.append(element("line", element("isbn", text="x"),
                                element("price", text=str(i))))
        relation = Relation("R", ("line",), [(None,)])
        assert not self.decision(XMLDocument(root), "line(/isbn, /price)",
                                 [relation])

    def test_chain_and_single_ad_edge_skip(self):
        doc = branch_document()
        assert self.decision(doc, "r(/a(/b))")
        assert self.decision(doc, "a(//b)")

    def test_validation_points(self):
        root = element("r")
        root.append(element("a", element("b", text="1"), text="7"))
        root.append(element("a", element("c", text="2"), text="7"))
        doc = XMLDocument(root)
        query = MultiModelQuery(
            [], [TwigBinding(parse_twig("a(/b, /c)", name="T"), doc)])
        assert validation_points(query, ("c", "a", "b")) == {"T": "b"}
        query = MultiModelQuery(
            [], [TwigBinding(parse_twig("a(/b)", name="T"), doc)])
        assert validation_points(query, ("a", "b")) == {"T": None}
