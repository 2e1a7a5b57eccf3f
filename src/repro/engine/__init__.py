"""The dictionary-encoded execution engine shared by all join algorithms.

Three layers (see ``docs/architecture.md``):

1. **Dictionary encoding** (:mod:`repro.engine.dictionary`) — per-attribute
   value <-> dense-int bijections, shared across relations and twig
   path-relations, order-preserving so code comparisons are value
   comparisons.
2. **Encoded instances + the operator interface**
   (:mod:`repro.engine.encoded`, :mod:`repro.engine.interface`) — one
   :class:`EncodedInstance` per query (int-keyed tries cached per input
   version, participation map, twig filters) consumed by any registered
   :class:`JoinAlgorithm`.
3. **Stats-driven planning** (:mod:`repro.engine.planner`) — cached
   relation/twig statistics choosing the expansion order and the
   algorithm, with the historical policies preserved as named strategies.

On top sits the **adaptive layer** (:mod:`repro.engine.adaptive`): the
``bound`` upper-bound order policy (registered here at import time),
plan racing with early kill, and the drift ledger that dates a race's
winner. See ``docs/planner.md``.
"""

from repro.engine.dictionary import Dictionary
from repro.engine.encoded import (
    EncodedInstance,
    EncodedTrie,
    TwigFilters,
)
from repro.engine.interface import (
    JoinAlgorithm,
    available_algorithms,
    get_algorithm,
    register,
)
from repro.engine.planner import (
    QueryPlan,
    QueryStatistics,
    cached_relation_stats,
    choose_twig_algorithm,
    plan_query,
    register_order_policy,
    run_query,
    statistics_for,
)

# Importing the adaptive layer registers the "bound" order policy
# alongside the static ones.
from repro.engine.adaptive import (  # noqa: E402  (needs planner above)
    AdaptivePlanner,
    FeedbackStore,
    PlanRacer,
)

__all__ = [
    "AdaptivePlanner",
    "Dictionary",
    "EncodedInstance",
    "EncodedTrie",
    "FeedbackStore",
    "JoinAlgorithm",
    "PlanRacer",
    "QueryPlan",
    "QueryStatistics",
    "TwigFilters",
    "available_algorithms",
    "cached_relation_stats",
    "choose_twig_algorithm",
    "get_algorithm",
    "plan_query",
    "register",
    "register_order_policy",
    "run_query",
    "statistics_for",
]
