"""XML substrate: document model, parser, labelling schemes, twig matching.

Everything the paper's XML side needs, self-contained: a hand-written
scanner (:mod:`repro.xml.scanner`, the one grammar under the tree parser
and the streaming arena builder) and serialiser, the region encoding
(the tree's only labels), the twig query model and pattern language, and
the twig-matching algorithms (naive navigation, structural-join
pipeline, PathStack/TwigStack, TJFast) — all running on the columnar
document store (:mod:`repro.xml.columnar`) and registered with the
unified :class:`TwigAlgorithm` interface (:mod:`repro.xml.interface`).
"""

from repro.xml.algorithms import match_twig
from repro.xml.columnar import (
    ColumnarDocument,
    DocumentStats,
    TagPosting,
    columnar,
    document_stats,
)
from repro.xml.encoding import annotate_regions, is_ancestor, is_parent
from repro.xml.generator import (
    chain_document,
    layered_document,
    random_document,
    star_document,
)
from repro.xml.interface import (
    TwigAlgorithm,
    available_twig_algorithms,
    get_twig_algorithm,
    register_twig_algorithm,
)
from repro.xml.model import XMLDocument, XMLNode, element
from repro.xml.navigation import match_embeddings, match_relation
from repro.xml.parser import parse_document, parse_element_tree
from repro.xml.pathstack import path_stack, path_stack_relation
from repro.xml.serializer import serialize
from repro.xml.structural_join import stack_tree_join, structural_join_pipeline
from repro.xml.tjfast import tjfast, tjfast_embeddings
from repro.xml.twig import Axis, TwigNode, TwigQuery, pattern_string
from repro.xml.twig_parser import parse_twig
from repro.xml.twigstack import twig_stack, twig_stack_embeddings
from repro.xml.xmark import XMarkScale, xmark_document
from repro.xml.xpath import XPathQuery, parse_xpath

__all__ = [
    "Axis",
    "ColumnarDocument",
    "DocumentStats",
    "TagPosting",
    "TwigAlgorithm",
    "TwigNode",
    "TwigQuery",
    "XMLDocument",
    "XMLNode",
    "XMarkScale",
    "XPathQuery",
    "annotate_regions",
    "available_twig_algorithms",
    "chain_document",
    "columnar",
    "document_stats",
    "get_twig_algorithm",
    "element",
    "is_ancestor",
    "is_parent",
    "layered_document",
    "match_embeddings",
    "match_relation",
    "match_twig",
    "parse_document",
    "parse_element_tree",
    "parse_twig",
    "parse_xpath",
    "path_stack",
    "path_stack_relation",
    "pattern_string",
    "random_document",
    "register_twig_algorithm",
    "serialize",
    "stack_tree_join",
    "star_document",
    "structural_join_pipeline",
    "tjfast",
    "tjfast_embeddings",
    "twig_stack",
    "twig_stack_embeddings",
    "xmark_document",
]
