"""Attribute expansion orders for XJoin (Algorithm 1's input ``PA``).

Any attribute order keeps XJoin worst-case optimal (the bound argument is
order-independent), but constants differ wildly.

The policies now live in :mod:`repro.engine.planner` as named strategies
of the stats-driven planner, where the ``domain`` and ``connected``
estimates come from *cached* relation statistics
(:func:`repro.engine.planner.cached_relation_stats`) instead of rescanning
``distinct_values`` on every call. This module re-exports them under
their historical names:

* ``given``  — the caller's explicit order, validated.
* ``appearance`` — relational schemas first, then twig pre-order (default).
* ``connected`` — greedy: start from the attribute with the smallest
  candidate domain, then repeatedly pick the attribute that shares an edge
  with the bound set (preferring small domains), avoiding accidental
  cartesian expansions.
* ``domain`` — globally sort by estimated candidate-domain size.
"""

from __future__ import annotations

from repro.engine.planner import (  # noqa: F401  (re-exported API)
    ORDER_STRATEGIES as _POLICIES,
    appearance_order,
    attribute_order,
    connected_order,
    domain_order,
)

__all__ = [
    "appearance_order",
    "attribute_order",
    "connected_order",
    "domain_order",
]
