"""Generic join (NPRR-style attribute-at-a-time worst-case optimal join).

This is the relational special case of the paper's Algorithm 1: expand one
attribute at a time, taking candidate values from the *smallest* candidate
set among the relations that contain the attribute and filtering against
the others. Worst-case optimality follows from the same argument as NPRR /
generic join (Ngo et al. 2012, 2014).

Unlike :mod:`repro.relational.leapfrog` this implementation uses hashed
trie descent instead of sorted seeks; the two are cross-checked in tests
and raced in the end-to-end ``rel_triangle`` workload. Both run through the shared
dictionary-encoded engine (:mod:`repro.engine`): this module is a thin
front-end that encodes the inputs into an
:class:`~repro.engine.encoded.EncodedInstance` and invokes the registered
``generic_join`` operator.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.algorithms import GENERIC_JOIN
from repro.engine.encoded import EncodedInstance
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def generic_join(relations: Sequence[Relation],
                 order: Sequence[str] | None = None, *,
                 name: str = "Q",
                 stats: JoinStats | None = None) -> Relation:
    """Worst-case optimal natural join by attribute-wise expansion."""
    stats = ensure_stats(stats)
    if not relations:
        return Relation(name, Schema(()), [()])
    with stats.phase("encode"):
        instance = EncodedInstance.from_relations(relations, order,
                                                  name=name)
    return GENERIC_JOIN.run(instance, stats=stats)
