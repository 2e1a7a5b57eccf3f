"""Per-relation statistics used by planners and size estimators.

The :func:`relation_stats` rescan is the oracle. The planner reads
equal statistics off one cold pass per relation version
(:func:`column_stats_of_domain`), the update layer maintains them from
deltas (:func:`stats_from_frequencies`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.relational.relation import Relation
from repro.relational.schema import Value, sort_key


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one attribute of a relation."""

    attribute: str
    distinct: int
    minimum: Value | None
    maximum: Value | None
    max_frequency: int


@dataclass(frozen=True)
class RelationStats:
    """Cardinality plus per-column statistics of a relation."""

    name: str
    cardinality: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def distinct(self, attribute: str) -> int:
        return self.columns[attribute].distinct


def column_stats_from_frequencies(attribute: str,
                                  frequency: "dict[Value, int]"
                                  ) -> ColumnStats:
    """:class:`ColumnStats` from a value -> occurrence-count map.

    Shared by the from-scratch scan below and the delta-maintained
    frequency maps of :mod:`repro.updates.relations`, so incrementally
    maintained statistics are equal (not merely equivalent) to a rescan.
    """
    if not frequency:
        return ColumnStats(attribute, 0, None, None, 0)
    return ColumnStats(
        attribute=attribute,
        distinct=len(frequency),
        minimum=min(frequency, key=sort_key),
        maximum=max(frequency, key=sort_key),
        max_frequency=max(frequency.values()),
    )


def column_stats_of_domain(attribute: str, domain: "Sequence[Value]",
                           max_frequency: int) -> ColumnStats:
    """:class:`ColumnStats` of a column whose distinct values are
    *domain*, already in :func:`sort_key` order (a dictionary's values),
    and whose most frequent value fills *max_frequency* rows."""
    if not domain:
        return ColumnStats(attribute, 0, None, None, 0)
    return ColumnStats(attribute, len(domain), domain[0], domain[-1],
                       max_frequency)


def column_stats(relation: Relation, attribute: str) -> ColumnStats:
    """Compute distinct count, min/max and the heaviest-hitter frequency."""
    position = relation.schema.index(attribute)
    frequency: dict[Value, int] = {}
    for row in relation.rows:
        value = row[position]
        frequency[value] = frequency.get(value, 0) + 1
    return column_stats_from_frequencies(attribute, frequency)


def relation_stats(relation: Relation) -> RelationStats:
    """Compute full statistics for a relation."""
    return RelationStats(
        name=relation.name,
        cardinality=len(relation),
        columns={a: column_stats(relation, a) for a in relation.schema},
    )


def stats_from_frequencies(name: str, cardinality: int,
                           frequencies: "dict[str, dict[Value, int]]"
                           ) -> RelationStats:
    """Full statistics from per-column frequency maps (the update layer's
    delta-maintained state), identical to a :func:`relation_stats` rescan."""
    return RelationStats(
        name=name,
        cardinality=cardinality,
        columns={a: column_stats_from_frequencies(a, freq)
                 for a, freq in frequencies.items()},
    )
