"""The paper's contribution: multi-model worst-case optimal joins.

Pipeline: decompose twigs into path relations and A-D pair inputs
(:mod:`decomposition`), compute the combined AGM bound (:mod:`agm`,
:mod:`lp`), evaluate with XJoin (:mod:`xjoin`) or the traditional
baseline (:mod:`baseline`).
"""

from repro.core.agm import (
    AGMBound,
    EdgeCover,
    VertexPacking,
    agm_bound,
    fractional_edge_cover,
    symbolic_exponent,
    verify_cover,
    verify_packing,
    vertex_packing,
)
from repro.core.baseline import baseline_join, relational_subquery, twig_subquery
from repro.core.decomposition import (
    PathRelation,
    TwigDecomposition,
    decompose,
    materialize_path_relation,
    path_relation_cardinality,
)
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.core.lp import LPSolution, minimise_lp, solve_lp
from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.core.validation import StructureValidator
from repro.core.xjoin import xjoin
from repro.engine.planner import attribute_order

__all__ = [
    "AGMBound",
    "EdgeCover",
    "Hyperedge",
    "Hypergraph",
    "LPSolution",
    "MultiModelQuery",
    "PathRelation",
    "StructureValidator",
    "TwigBinding",
    "TwigDecomposition",
    "VertexPacking",
    "agm_bound",
    "attribute_order",
    "baseline_join",
    "decompose",
    "fractional_edge_cover",
    "materialize_path_relation",
    "minimise_lp",
    "path_relation_cardinality",
    "relational_subquery",
    "solve_lp",
    "symbolic_exponent",
    "twig_subquery",
    "verify_cover",
    "verify_packing",
    "vertex_packing",
    "xjoin",
]
