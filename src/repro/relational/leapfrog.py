"""Leapfrog Triejoin (Veldhuizen 2012), cited by the paper as a simple
worst-case optimal relational join.

Two layers: :func:`leapfrog_intersect`, the unary leapfrog over
:class:`~repro.relational.iterators.LinearIterator` instances, and
:func:`leapfrog_triejoin`, the full multiway join. The multiway join runs
through the shared dictionary-encoded engine (:mod:`repro.engine`): the
level-at-a-time frontier kernel, each level met by intersecting sorted
key buffers of dense ints in value order, so its probes compare plain
integers instead of materialising
:func:`~repro.relational.schema.sort_key` tuples per comparison.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.engine.algorithms import LEAPFROG
from repro.engine.encoded import EncodedInstance
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.iterators import LinearIterator
from repro.relational.relation import Relation
from repro.relational.schema import Schema, Value, sort_key


def leapfrog_intersect(iterators: Sequence[LinearIterator], *,
                       stats: JoinStats | None = None) -> Iterator[Value]:
    """Yield the intersection of the iterators' value sequences, in order.

    The classic leapfrog: repeatedly seek the lagging iterator to the
    current maximum until all iterators agree on a key. This standalone
    form works over raw (unencoded) values, hence the sort_key calls; the
    multiway join below leapfrogs over encoded ints instead.
    """
    stats = ensure_stats(stats)
    if not iterators:
        return
    if any(it.at_end() for it in iterators):
        return
    # Order the iterators by their current key; p points at the smallest.
    order = sorted(range(len(iterators)), key=lambda i: sort_key(iterators[i].key()))
    its = [iterators[i] for i in order]
    p = 0
    max_key = its[-1].key()
    while True:
        it = its[p]
        least = it.key()
        stats.count_comparisons()
        if sort_key(least) == sort_key(max_key):
            yield least
            it.next()
            stats.count_seeks()
            if it.at_end():
                return
            max_key = it.key()
        else:
            it.seek(max_key)
            stats.count_seeks()
            if it.at_end():
                return
            max_key = it.key()
        p = (p + 1) % len(its)


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
