"""Relational substrate: schemas, relations, binary plans and join oracles.

The paper needs three things from a relational engine, and this package
holds exactly those: the binary hash-join plans of the baseline
(Figure 3's left side), the worst-case optimal joins (generic join and
Leapfrog Triejoin, thin front-ends over the shared engine), and the
naive natural join every optimised join is checked against.
"""

from repro.relational.generic_join import generic_join
from repro.relational.joins import hash_join
from repro.relational.leapfrog import leapfrog_triejoin
from repro.relational.operators import naive_multiway_join
from repro.relational.plans import (
    PlanNode,
    execute_plan,
    greedy_plan,
    join_node,
    leaf,
    left_deep_plan,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema, sort_key, tuple_sort_key

__all__ = [
    "PlanNode",
    "Relation",
    "Schema",
    "execute_plan",
    "generic_join",
    "greedy_plan",
    "hash_join",
    "join_node",
    "leaf",
    "leapfrog_triejoin",
    "left_deep_plan",
    "naive_multiway_join",
    "sort_key",
    "tuple_sort_key",
]
