"""Binary join plans: the traditional evaluator the paper's baseline uses.

A plan is a binary tree whose leaves are relation names and whose inner
nodes are natural joins. :func:`left_deep_plan` builds the textbook
left-deep chain; :func:`greedy_plan` picks, at each step, the join with the
smallest estimated output (a classic System-R-flavoured heuristic without
dynamic programming). :func:`execute_plan` evaluates a plan with the hash
join, recording every intermediate size.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.errors import PlanError
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.joins import hash_join
from repro.relational.relation import Relation


@dataclass(frozen=True)
class PlanNode:
    """A node of a binary join plan.

    Leaves carry a relation name; inner nodes carry two children.
    """

    relation: str | None = None
    left: "PlanNode | None" = None
    right: "PlanNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.relation is not None

    def leaves(self) -> list[str]:
        if self.is_leaf:
            return [self.relation]  # type: ignore[list-item]
        assert self.left is not None and self.right is not None
        return self.left.leaves() + self.right.leaves()

    def __str__(self) -> str:
        if self.is_leaf:
            return str(self.relation)
        return f"({self.left} ⋈ {self.right})"


def leaf(relation: str) -> PlanNode:
    return PlanNode(relation=relation)


def join_node(left: PlanNode, right: PlanNode) -> PlanNode:
    return PlanNode(left=left, right=right)


def left_deep_plan(order: Sequence[str]) -> PlanNode:
    """The left-deep chain ((R1 ⋈ R2) ⋈ R3) ⋈ ... in the given order."""
    if not order:
        raise PlanError("cannot build a plan over zero relations")
    node = leaf(order[0])
    for name in order[1:]:
        node = join_node(node, leaf(name))
    return node


def estimate_join_size(left: Relation, right: Relation) -> int:
    """Textbook independence estimate of |left ⋈ right|.

    |L|·|R| divided by the product over shared attributes of the larger
    distinct count — the standard System-R formula.
    """
    estimate = len(left) * len(right)
    for attribute in left.schema.common(right.schema):
        distinct = max(len(left.distinct_values(attribute)),
                       len(right.distinct_values(attribute)), 1)
        estimate //= distinct
    return max(estimate, 0)


def greedy_plan(relations: Mapping[str, Relation]) -> PlanNode:
    """Greedy smallest-estimated-output join ordering.

    Starts from the smallest relation and repeatedly joins in whichever
    remaining relation minimises the estimated intermediate size, preferring
    connected (attribute-sharing) joins over cartesian products.
    """
    if not relations:
        raise PlanError("cannot build a plan over zero relations")
    remaining = dict(relations)
    start = min(remaining, key=lambda name: len(remaining[name]))
    node = leaf(start)
    current = remaining.pop(start)
    while remaining:
        def score(name: str) -> tuple[int, int]:
            candidate = remaining[name]
            connected = 0 if current.schema.common(candidate.schema) else 1
            return (connected, estimate_join_size(current, candidate))

        best = min(remaining, key=score)
        node = join_node(node, leaf(best))
        current = current.natural_join(remaining.pop(best))
    return node


def execute_plan(plan: PlanNode, relations: Mapping[str, Relation], *,
                 stats: JoinStats | None = None) -> Relation:
    """Evaluate *plan* bottom-up with hash joins, counting intermediates."""
    stats = ensure_stats(stats)

    def recurse(node: PlanNode) -> Relation:
        if node.is_leaf:
            try:
                return relations[node.relation]  # type: ignore[index]
            except KeyError:
                raise PlanError(f"plan references unknown relation "
                                f"{node.relation!r}") from None
        assert node.left is not None and node.right is not None
        return hash_join(recurse(node.left), recurse(node.right), stats=stats)

    return recurse(plan)
