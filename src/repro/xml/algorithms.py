"""The built-in :class:`TwigAlgorithm` implementations.

All matcher families run on the shared columnar document layer
(:mod:`repro.xml.columnar`) and register with
:mod:`repro.xml.interface` under stable names:

* ``twigstack`` — holistic two-phase matching; optimal for twigs whose
  edges are all ancestor-descendant;
* ``tjfast`` — leaf-streams-only matching over interned root tag paths;
  internal query nodes consume no input;
* ``pathstack`` — the one-sweep stack join for *linear* paths (rejects
  branching twigs via :meth:`supports`);
* ``structural`` — the pre-holistic pipeline of binary structural joins,
  kept as the foil with materialised per-edge pair lists;
* ``accel`` — the level-at-a-time columnar kernel: a reducer pass and
  a frontier expansion over the posting, ``parents`` and region-label
  arrays (:mod:`repro.xml.accel`); the planner's pick for every twig;
* ``naive`` — brute-force navigation, the correctness oracle.

``match_twig`` is the planned entry point: it runs the engine planner's
pick (:func:`repro.engine.planner.choose_twig_algorithm`) unless the
caller names a matcher explicitly.
"""

from __future__ import annotations

from repro.instrumentation import JoinStats
from repro.relational.relation import Relation
from repro.xml.accel import AccelTwigAlgorithm
from repro.xml.interface import (
    get_twig_algorithm,
    register_twig_algorithm,
)
from repro.xml.model import XMLDocument, XMLNode
from repro.xml.navigation import match_embeddings, match_relation
from repro.xml.pathstack import path_stack, path_stack_relation
from repro.xml.structural_join import (
    structural_join_embeddings,
    structural_join_pipeline,
)
from repro.xml.tjfast import tjfast, tjfast_embeddings
from repro.xml.twig import TwigQuery
from repro.xml.twigstack import twig_stack, twig_stack_embeddings


class TwigStackAlgorithm:
    """Holistic TwigStack (optimal for A-D-only twigs)."""

    name = "twigstack"
    optimal_for = "ancestor-descendant edges"

    def supports(self, twig: TwigQuery) -> bool:
        return True

    def embeddings(self, document: XMLDocument, twig: TwigQuery, *,
                   stats: JoinStats | None = None
                   ) -> list[dict[str, XMLNode]]:
        return twig_stack_embeddings(document, twig, stats=stats)

    def run(self, document: XMLDocument, twig: TwigQuery, *,
            name: str | None = None,
            stats: JoinStats | None = None) -> Relation:
        return twig_stack(document, twig, name=name, stats=stats)


class TJFastAlgorithm:
    """TJFast over interned root tag paths (leaf streams only)."""

    name = "tjfast"
    optimal_for = "ancestor-descendant edges; reads only leaf streams"

    def supports(self, twig: TwigQuery) -> bool:
        return True

    def embeddings(self, document: XMLDocument, twig: TwigQuery, *,
                   stats: JoinStats | None = None
                   ) -> list[dict[str, XMLNode]]:
        return tjfast_embeddings(document, twig, stats=stats)

    def run(self, document: XMLDocument, twig: TwigQuery, *,
            name: str | None = None,
            stats: JoinStats | None = None) -> Relation:
        return tjfast(document, twig, name=name, stats=stats)


class PathStackAlgorithm:
    """PathStack — linear paths only, one document-order sweep."""

    name = "pathstack"
    optimal_for = "linear paths (both axes)"

    def supports(self, twig: TwigQuery) -> bool:
        return all(len(q.children) <= 1 for q in twig.nodes())

    def embeddings(self, document: XMLDocument, twig: TwigQuery, *,
                   stats: JoinStats | None = None
                   ) -> list[dict[str, XMLNode]]:
        names = [q.name for q in twig.nodes()]
        return [dict(zip(names, solution))
                for solution in path_stack(document, twig, stats=stats)]

    def run(self, document: XMLDocument, twig: TwigQuery, *,
            name: str | None = None,
            stats: JoinStats | None = None) -> Relation:
        result = path_stack_relation(document, twig, stats=stats)
        return result.with_name(name) if name else result


class StructuralJoinAlgorithm:
    """Binary structural-join pipeline (the pre-holistic foil)."""

    name = "structural"
    optimal_for = "nothing (per-edge pair lists can dwarf the answer)"

    def supports(self, twig: TwigQuery) -> bool:
        return True

    def embeddings(self, document: XMLDocument, twig: TwigQuery, *,
                   stats: JoinStats | None = None
                   ) -> list[dict[str, XMLNode]]:
        return structural_join_embeddings(document, twig, stats=stats)

    def run(self, document: XMLDocument, twig: TwigQuery, *,
            name: str | None = None,
            stats: JoinStats | None = None) -> Relation:
        result = structural_join_pipeline(document, twig, stats=stats)
        return result.with_name(name) if name else result


class NaiveNavigationAlgorithm:
    """Brute-force navigation — the correctness oracle."""

    name = "naive"
    optimal_for = "nothing (oracle only)"

    def supports(self, twig: TwigQuery) -> bool:
        return True

    def embeddings(self, document: XMLDocument, twig: TwigQuery, *,
                   stats: JoinStats | None = None
                   ) -> list[dict[str, XMLNode]]:
        return match_embeddings(document, twig, stats=stats)

    def run(self, document: XMLDocument, twig: TwigQuery, *,
            name: str | None = None,
            stats: JoinStats | None = None) -> Relation:
        return match_relation(document, twig, name=name, stats=stats)


TWIGSTACK = register_twig_algorithm(TwigStackAlgorithm())
TJFAST = register_twig_algorithm(TJFastAlgorithm())
PATHSTACK = register_twig_algorithm(PathStackAlgorithm())
STRUCTURAL = register_twig_algorithm(StructuralJoinAlgorithm())
NAIVE = register_twig_algorithm(NaiveNavigationAlgorithm())
ACCEL = register_twig_algorithm(AccelTwigAlgorithm())


def match_twig(document: XMLDocument, twig: TwigQuery, *,
               algorithm: str | None = None,
               name: str | None = None,
               stats: JoinStats | None = None) -> Relation:
    """Evaluate one twig with the named (or planner-chosen) algorithm."""
    if algorithm is None:
        # Imported lazily: the planner imports this module's registry.
        from repro.engine.planner import choose_twig_algorithm

        algorithm = choose_twig_algorithm(document, twig)
    return get_twig_algorithm(algorithm).run(document, twig, name=name,
                                             stats=stats)
