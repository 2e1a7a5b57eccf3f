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

On top sits the **adaptive layer** (:mod:`repro.engine.adaptive`): plan
racing with early kill over the order policies, and the drift ledger
that dates a race's winner. See ``docs/planner.md``.
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
    run_query,
    statistics_for,
)
from repro.engine.adaptive import (
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
    "run_query",
    "statistics_for",
]
