"""Leapfrog Triejoin (Veldhuizen 2012), cited by the paper as a simple
worst-case optimal relational join.

:func:`leapfrog_triejoin` is the multiway join's public front-end. It
runs through the shared dictionary-encoded engine (:mod:`repro.engine`):
the level-at-a-time frontier kernel, each level met by intersecting
sorted key buffers of dense ints in value order
(:func:`~repro.buffers.kernels.intersect_pair` /
:func:`~repro.buffers.kernels.intersect_many`), so its probes compare
plain integers instead of materialising
:func:`~repro.relational.schema.sort_key` tuples per comparison.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.algorithms import LEAPFROG
from repro.engine.encoded import EncodedInstance
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def leapfrog_triejoin(relations: Sequence[Relation],
                      order: Sequence[str] | None = None, *,
                      name: str = "Q",
                      stats: JoinStats | None = None) -> Relation:
    """Worst-case optimal natural join of *relations* via LFTJ.

    ``order`` is the global attribute order; it must cover the union of the
    schemas. Defaults to the attributes in first-appearance order.
    """
    stats = ensure_stats(stats)
    if not relations:
        return Relation(name, Schema(()), [()])
    with stats.phase("encode"):
        instance = EncodedInstance.from_relations(relations, order,
                                                  name=name)
    return LEAPFROG.run(instance, stats=stats)
