"""Per-relation statistics used by planners and size estimators.

The :func:`relation_stats` rescan is the oracle. The planner reads
equal statistics off one cold pass per relation version
(:func:`column_stats_of_domain`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter

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
    frequency = Counter(map(itemgetter(position), relation.rows))
    if not frequency:
        return ColumnStats(attribute, 0, None, None, 0)
    return ColumnStats(
        attribute=attribute,
        distinct=len(frequency),
        minimum=min(frequency, key=sort_key),
        maximum=max(frequency, key=sort_key),
        max_frequency=max(frequency.values()),
    )


def relation_stats(relation: Relation) -> RelationStats:
    """Compute full statistics for a relation."""
    return RelationStats(
        name=relation.name,
        cardinality=len(relation),
        columns={a: column_stats(relation, a) for a in relation.schema},
    )
