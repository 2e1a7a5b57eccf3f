"""XJoin — the paper's Algorithm 1: worst-case optimal multi-model join.

XJoin evaluates a :class:`~repro.core.multimodel.MultiModelQuery` one
attribute at a time (the expansion priority ``PA``). At each step the
candidate values for the attribute are intersected across *every* input
that binds it — relational tables and the twig's decomposed root-leaf
path relations alike — so no partial tuple ever violates an already-seen
input. By the AGM argument over the combined hypergraph, the number of
partial tuples at any stage never exceeds the worst-case size bound of
the whole query (Lemma 3.5; property-tested in the suite).

Since the engine refactor this module is the multi-model *front-end*: it
resolves the expansion order (:mod:`repro.engine.planner`), assembles one
dictionary-encoded :class:`~repro.engine.encoded.EncodedInstance` —
relations and path relations indexed as int-coded tries over shared
per-attribute dictionaries, path columns gathered in bulk from the
columnar arrays without ever materialising a relation (the paper's "we
do not physically transform them into relational tables"; node
identities are int codes, :mod:`repro.core.surrogate`) — and invokes
the registered ``xjoin`` operator
(:class:`repro.engine.algorithms.XJoinAlgorithm`).

Twig structure is part of the join, not a callback after it — the
paper's "on-going work" ("filtering infeasible intermediate results and
partially validating the twig structure during the joining"), as the
one and only path:

* every cut A-D edge ``u//l`` is one more encoded input, the (value,
  value) pair relation of the document's ancestor-descendant node pairs
  (:func:`repro.core.decomposition.twig_input`), so it prunes
  by trie intersection like any relation and connects ``u`` and ``l``
  in the hypergraph the order policies walk;
* the remaining check — do all paths and pairs share their nodes? —
  runs at the level that binds the twig's last attribute, memoised on
  the twig's code projection, over the columnar arrays
  (:class:`repro.core.validation.StructureValidator`);
* and it is skipped when the decomposition proves the join already
  implies an embedding
  (:func:`repro.core.validation.join_implies_embedding`) — and then an
  *existential* node expanded last is tested for one witness, not
  enumerated (:func:`repro.core.validation.tested_attribute`).

All of these only shrink intermediate results, and the size bound is still
computed over the P-C path relations alone, so Lemma 3.5 holds as
stated. ``validate_structure=False`` evaluates the paper's plain
relaxation instead (paths only, no pairs, no check) — the ablation and
oracle baseline.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.multimodel import MultiModelQuery
from repro.engine.algorithms import XJOIN
from repro.engine.encoded import EncodedInstance
from repro.engine.planner import attribute_order
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation


def xjoin(query: MultiModelQuery,
          order: "str | Sequence[str] | None" = None, *,
          stats: JoinStats | None = None,
          validate_structure: bool = True) -> Relation:
    """Evaluate *query* with the worst-case optimal XJoin algorithm.

    ``order`` is Algorithm 1's expansion priority ``PA``: an explicit
    attribute sequence or a planner policy name (see
    :mod:`repro.engine.planner`). ``validate_structure=False`` returns the
    relaxed value join over the path relations alone (ablation only).
    """
    stats = ensure_stats(stats)
    expansion = attribute_order(query, order)
    with stats.phase("encode"):
        instance = EncodedInstance.from_query(
            query, expansion, validate_structure=validate_structure)
    return XJOIN.run(instance, stats=stats)
