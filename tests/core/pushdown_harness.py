"""Shared machinery for the structure-pushdown suites.

Randomized tests derive their generators from ``REPRO_PUSHDOWN_SEED``
(default a fixed constant, so plain ``pytest`` runs are reproducible).
The active seed is echoed in the pytest header (``conftest.py``) and in
every assertion message, so any failure names the seed that reproduces
it.
"""

from __future__ import annotations

import os
import random

from repro.core.multimodel import MultiModelQuery
from repro.core.xjoin import xjoin
from repro.relational.relation import Relation
from repro.xml.navigation import match_relation

#: The suite-wide base seed (override: REPRO_PUSHDOWN_SEED=12345 pytest ...).
PUSHDOWN_SEED = int(os.environ.get("REPRO_PUSHDOWN_SEED", "20260927"))


def seeded_rng(salt: object) -> random.Random:
    """A generator derived from the suite seed and a per-site salt."""
    return random.Random(f"{PUSHDOWN_SEED}:{salt}")


def relaxed_then_naive(query: MultiModelQuery,
                       order: "str | tuple[str, ...] | None" = None
                       ) -> Relation:
    """The pushdown's reference answer: the paper's relaxed value join
    (``validate_structure=False`` — paths only, no pair inputs, no
    structure check) post-filtered by the naive twig matcher."""
    relaxed = xjoin(query, order, validate_structure=False)
    keep = list(relaxed.rows)
    for binding in query.twigs:
        answers = match_relation(binding.document, binding.twig).rows
        positions = relaxed.schema.positions(binding.twig.attributes)
        keep = [row for row in keep
                if tuple(row[p] for p in positions) in answers]
    return Relation(query.name, relaxed.schema, keep)
