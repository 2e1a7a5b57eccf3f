"""Every ordering policy yields byte-identical rows.

The adaptive layer's safety property: bounds and raced winners
influence *plan choice only*. Whatever order policy picks the
expansion order — and whatever operator runs it — the decoded result
must equal the naive oracle on every cross-algorithm scenario,
including the skewed instance built to fool the static statistics.
"""

from __future__ import annotations

import pytest

from repro.core.multimodel import MultiModelQuery
from repro.data.scenarios import figure1_query
from repro.data.synthetic import (
    agm_tight_triangle,
    example33_instance,
    example34_instance,
    skewed_triangle,
)
from repro.engine.adaptive import AdaptivePlanner, FeedbackStore
from repro.engine.planner import attribute_order, run_query

POLICIES = ("appearance", "domain", "connected", "bound")


def scenarios() -> list[tuple[str, MultiModelQuery]]:
    return [
        ("figure1", figure1_query()),
        ("example33", example33_instance(2).query),
        ("example34", example34_instance(3).query),
        ("agm triangle", MultiModelQuery(agm_tight_triangle(24), [],
                                         name="T")),
        ("skewed triangle", MultiModelQuery(skewed_triangle(256), [],
                                            name="skewed")),
    ]


@pytest.mark.parametrize("label,query", scenarios(),
                         ids=[label for label, _ in scenarios()])
class TestOrderParity:
    def test_every_policy_matches_the_naive_oracle(self, label, query):
        oracle = query.naive_join()
        for policy in POLICIES:
            order = attribute_order(query, policy)
            result = run_query(query, order=order)
            assert result == oracle, (label, policy, order)

    def test_adaptive_execute_matches_the_naive_oracle(self, label, query):
        oracle = query.naive_join()
        planner = AdaptivePlanner(store=FeedbackStore())
        for _ in range(2):  # raced plan, then the held winner
            assert planner.execute(query) == oracle, label
