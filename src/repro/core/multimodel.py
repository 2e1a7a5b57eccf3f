"""Multi-model queries: relational tables joined with XML twigs.

A :class:`MultiModelQuery` bundles relational tables and twig/document
bindings into one conjunctive query. Attribute identity is by name: a
twig node named ``ISBN`` joins with a relational column ``ISBN`` (Figure 1
of the paper). The class exposes the combined query hypergraph (relation
schemas plus decomposed twig path relations), the worst-case size bound of
Section 3, and a naive evaluation oracle; the optimal evaluator is
:func:`repro.core.xjoin.xjoin` and the traditional one
:func:`repro.core.baseline.baseline_join`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from repro.core.agm import AGMBound, agm_bound, symbolic_exponent, vertex_packing
from repro.core.decomposition import (
    TwigDecomposition,
    decompose,
    path_relation_cardinality,
)
from repro.core.hypergraph import Hypergraph
from repro.errors import QueryError
from repro.instrumentation import JoinStats
from repro.relational.operators import naive_multiway_join
from repro.relational.relation import Relation
from repro.xml.model import XMLDocument
from repro.xml.navigation import match_relation
from repro.xml.twig import TwigQuery


@dataclass(frozen=True)
class TwigBinding:
    """A twig pattern evaluated against one document."""

    twig: TwigQuery
    document: XMLDocument

    @property
    def name(self) -> str:
        return self.twig.name


def _decomposition(twig: TwigQuery) -> TwigDecomposition:
    """*twig*'s decomposition, made once per twig object and kept on it:
    a query re-bound to new inputs over the same twigs (a session's
    delta query, a snapshot's) shares its source query's."""
    found = twig.decomposition
    if found is None:
        found = twig.decomposition = decompose(twig)
    return found


class MultiModelQuery:
    """A conjunctive query over relational tables and XML twigs.

    >>> # doctest-style sketch; see examples/ for runnable versions.
    >>> # q = MultiModelQuery([orders], [TwigBinding(twig, invoices)])
    """

    def __init__(self, relations: Sequence[Relation] = (),
                 twigs: Sequence[TwigBinding] = (), *, name: str = "Q"):
        self.relations = list(relations)
        self.twigs = list(twigs)
        self.name = name
        if not self.relations and not self.twigs:
            raise QueryError("a multi-model query needs at least one input")
        names = [r.name for r in self.relations] + [t.name for t in self.twigs]
        if len(names) != len(set(names)):
            raise QueryError(f"duplicate input names in query: {names!r}")

    # -- attributes ------------------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        """All attributes, relational first, in first-appearance order."""
        return tuple(dict.fromkeys(chain(
            *[relation.schema.attributes for relation in self.relations],
            *[_decomposition(binding.twig).attributes
              for binding in self.twigs])))

    def structural_attributes(self, binding: TwigBinding) -> frozenset[str]:
        """Twig attributes of *binding* that join with nothing outside it.

        These are safe to bind by node identity when valueless (see
        :mod:`repro.core.surrogate`): they appear in no relational schema
        and in no other twig, so only this twig's own path relations ever
        intersect on them.
        """
        return frozenset(_decomposition(binding.twig).attributes).difference(
            *[relation.schema.attributes for relation in self.relations],
            *[_decomposition(other.twig).attributes for other in self.twigs
              if other.name != binding.name])

    # -- the combined hypergraph and bounds --------------------------------

    def hypergraph(self, *, with_cardinalities: bool = True,
                   ad_pairs: bool = False) -> Hypergraph:
        """Relation schemas plus decomposed path relations as hyperedges.

        This is the paper's hypergraph, the one :meth:`size_bound` is
        computed over. With ``ad_pairs`` it also carries one binary edge
        per cut A-D twig edge — the hypergraph XJoin actually joins and
        the order policies walk (an A-D edge connects its sub-twigs).

        With ``with_cardinalities`` the edges carry instance sizes:
        relation cardinalities and distinct-value-tuple counts of the
        path relations and pair inputs.
        """
        graph = Hypergraph()
        for relation in self.relations:
            graph.add_edge(
                relation.name, relation.schema.attributes,
                cardinality=len(relation) if with_cardinalities else None)
        for binding in self.twigs:
            decomposition = _decomposition(binding.twig)
            structural = self.structural_attributes(binding)
            for atom in decomposition.paths + (
                    decomposition.pairs if ad_pairs else ()):
                # The size of the atom's trie, whichever column order
                # XJoin built it in (else counted, without one).
                cardinality = path_relation_cardinality(
                    binding.document, atom, structural) \
                    if with_cardinalities else None
                graph.add_edge(atom.name, atom.attributes,
                               cardinality=cardinality)
        return graph

    def size_bound(self) -> AGMBound:
        """The instance worst-case size bound (Section 3, via Equation 1's
        primal form weighted by log cardinalities) — over relations and
        P-C path relations only, as in the paper. The A-D pair inputs
        XJoin also joins can only shrink a stage, so Lemma 3.5 holds
        against this bound unchanged (it merely gets slacker)."""
        return agm_bound(self.hypergraph())

    def symbolic_exponent(self) -> Fraction:
        """ρ*: the bound is n^ρ* when every input has cardinality n."""
        return symbolic_exponent(self.hypergraph(with_cardinalities=False))

    def dual_packing(self):
        """The paper's Equation 1 certificate (max Σ y_a)."""
        return vertex_packing(self.hypergraph(with_cardinalities=False))

    # -- reference evaluation ---------------------------------------------

    def twig_relations(self) -> list[Relation]:
        """Each twig's full value-tuple answer (naive matcher)."""
        return [match_relation(binding.document, binding.twig)
                for binding in self.twigs]

    def naive_join(self, *, stats: JoinStats | None = None) -> Relation:
        """Correctness oracle: natural join of the relational tables with
        each twig's full (naively computed) answer relation."""
        inputs = self.relations + self.twig_relations()
        result = naive_multiway_join(inputs, name=self.name)
        return result.project(self.attributes, name=self.name)

    def __repr__(self) -> str:
        return (f"MultiModelQuery({self.name!r}, "
                f"{len(self.relations)} relations, {len(self.twigs)} twigs)")
