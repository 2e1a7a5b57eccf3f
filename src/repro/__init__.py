"""repro — Worst-Case Optimal Joins on Relational and XML Data.

A complete reproduction of Yuxing Chen's SIGMOD 2018 paper: a relational
engine, an XML engine (parser, labelling schemes, twig matching), the AGM
bound machinery over combined relational+twig hypergraphs, and the XJoin
worst-case optimal multi-model join algorithm with its baseline.

All join algorithms execute through the shared dictionary-encoded engine
(:mod:`repro.engine`); :func:`repro.engine.run_query` is the planned
one-call entry point, and ``docs/architecture.md`` maps the layers.

Quickstart::

    from repro import (MultiModelQuery, Relation, TwigBinding,
                       parse_document, parse_twig, xjoin)

    orders = Relation("R", ("orderID", "userID"),
                      [(10963, "jack"), (20134, "tom")])
    invoices = parse_document("<invoices>...</invoices>")
    twig = parse_twig("orderLine(/orderID, /ISBN, /price)")
    query = MultiModelQuery([orders], [TwigBinding(twig, invoices)])
    result = xjoin(query)

See examples/ for runnable end-to-end scripts and docs/architecture.md
for the system inventory.
"""

from repro.core import (
    AGMBound,
    Hypergraph,
    MultiModelQuery,
    TwigBinding,
    agm_bound,
    baseline_join,
    decompose,
    fractional_edge_cover,
    symbolic_exponent,
    vertex_packing,
    xjoin,
)
from repro.engine import EncodedInstance, plan_query, run_query
from repro.instrumentation import JoinStats
from repro.relational import (
    Relation,
    Schema,
    generic_join,
    hash_join,
    leapfrog_triejoin,
)
from repro.xml import (
    Axis,
    TwigQuery,
    XMLDocument,
    XMLNode,
    parse_document,
    parse_twig,
    parse_xpath,
    twig_stack,
)

__version__ = "1.1.0"

__all__ = [
    "AGMBound",
    "Axis",
    "EncodedInstance",
    "Hypergraph",
    "JoinStats",
    "MultiModelQuery",
    "Relation",
    "Schema",
    "TwigBinding",
    "TwigQuery",
    "XMLDocument",
    "XMLNode",
    "agm_bound",
    "baseline_join",
    "decompose",
    "fractional_edge_cover",
    "generic_join",
    "hash_join",
    "leapfrog_triejoin",
    "parse_document",
    "parse_twig",
    "parse_xpath",
    "plan_query",
    "run_query",
    "symbolic_exponent",
    "twig_stack",
    "vertex_packing",
    "xjoin",
]
