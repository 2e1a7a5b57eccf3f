"""The natural-join oracle every optimised join is checked against.

Set semantics (the paper's bounds count distinct tuples); inputs are
never mutated.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.relational.relation import Relation
from repro.relational.schema import Schema


def naive_multiway_join(relations: Sequence[Relation],
                        name: str = "Q") -> Relation:
    """Reference natural join of many relations, left to right.

    Used as the correctness oracle for every optimised join in the library.
    Joining zero relations yields the nullary relation with one empty tuple
    (the identity of natural join).
    """
    if not relations:
        return Relation(name, Schema(()), [()])
    result = relations[0]
    for relation in relations[1:]:
        result = result.natural_join(relation)
    return result.with_name(name)

