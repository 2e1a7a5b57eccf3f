"""Relational substrate: schemas, relations, indexes and join algorithms.

The paper presumes a relational engine with both traditional binary join
plans (for the baseline) and worst-case optimal joins (Leapfrog Triejoin,
generic join). This package provides all of it, self-contained.
"""

from repro.relational.aggregates import (
    agg_avg,
    agg_count,
    agg_count_distinct,
    agg_max,
    agg_min,
    agg_sum,
    group_by,
    order_by,
    summarize,
    top_k,
)
from repro.relational.catalog import Database
from repro.relational.generic_join import generic_join
from repro.relational.joins import hash_join, sort_merge_join
from repro.relational.leapfrog import leapfrog_triejoin
from repro.relational.operators import (
    antijoin,
    cartesian_product,
    difference,
    intersection,
    naive_multiway_join,
    semijoin,
    union,
)
from repro.relational.plans import (
    PlanNode,
    dp_plan,
    execute_plan,
    greedy_plan,
    join_node,
    leaf,
    left_deep_plan,
)
from repro.relational.query import ConjunctiveQuery, parse_cq
from repro.relational.relation import Relation
from repro.relational.schema import Schema, sort_key, tuple_sort_key

__all__ = [
    "ConjunctiveQuery",
    "Database",
    "PlanNode",
    "Relation",
    "Schema",
    "agg_avg",
    "agg_count",
    "agg_count_distinct",
    "agg_max",
    "agg_min",
    "agg_sum",
    "group_by",
    "order_by",
    "parse_cq",
    "summarize",
    "top_k",
    "antijoin",
    "cartesian_product",
    "difference",
    "dp_plan",
    "execute_plan",
    "generic_join",
    "greedy_plan",
    "hash_join",
    "intersection",
    "join_node",
    "leaf",
    "leapfrog_triejoin",
    "left_deep_plan",
    "naive_multiway_join",
    "semijoin",
    "sort_key",
    "sort_merge_join",
    "tuple_sort_key",
    "union",
]
