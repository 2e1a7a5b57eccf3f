"""Adaptive planning: bounds, plan racing and the drift ledger.

XJoin is worst-case optimal in every attribute order, so a plan only
picks constants. Three pieces pick them:

1. **Bound-driven ordering** (:func:`bound_order` / the ``bound``
   policy). A UES/AGM style estimate: the number of bindings a new
   attribute adds per prefix tuple is upper-bounded, per input, by the
   input's maximum per-value frequency on any already-bound attribute
   (or its distinct count when disconnected). A subset DP picks the
   order minimising the worst per-prefix output bound — the quantity
   Lemma 3.5 bounds — with the cumulative product as tie-break.

2. **Plan racing** (:class:`PlanRacer`). The top-K candidate plans
   (order policy x operator), ranked by that bound, race on a budgeted
   sample of the key domain (a :func:`~repro.parallel.slicing.
   sliced_instance` over the first codes of each candidate's own
   level-0 axis); each round the slower half is killed and the
   survivors re-race on a sample :data:`GROWTH` times larger, every
   round reusing the one :class:`~repro.engine.encoded.EncodedInstance`
   assembled per distinct order (contenders agreeing on an input's
   column order share its cached trie).

3. **The drift ledger** (:class:`FeedbackStore`).
   :class:`~repro.updates.session.QuerySession` reports every delta to
   it; deltas add up per input until they reach a churn fraction of
   the input (or a document edit forces a rebuild), which advances the
   input's *generation* and moves the *epoch*. The racer's winner is
   cached per query signature until the epoch moves, so a read-only
   workload races once and an update stream re-races only on drift.
   The service holds the adaptive plan, dated by the same epoch, so
   ``repro serve`` tenants share it; beside it, it keeps the plan's
   prepared read (:class:`~repro.engine.planner.PreparedQuery`) until
   the next batch, and a re-race that crowns the same order and
   algorithm keeps it.

A plan influences speed only: every ordering policy and every raced
plan returns byte-identical rows (the parity suites assert this).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

from repro.engine.encoded import EncodedInstance
from repro.engine.interface import get_algorithm
from repro.engine.planner import (
    QueryPlan,
    _extension_bound,
    attribute_order,
    estimated_stage_sizes,
    linked_attributes,
    plan_query,
    query_signature,
    register_order_policy,
    run_query,
    statistics_for,
)
from repro.instrumentation import JoinStats, ensure_stats

if TYPE_CHECKING:
    from repro.core.multimodel import MultiModelQuery
    from repro.engine.planner import QueryStatistics
    from repro.relational.relation import Relation


def observed_stage_sizes(stats: JoinStats,
                         order: Iterable[str]) -> dict[str, int]:
    """Observed per-attribute live-tuple counts from executed stats.

    The kernels label their per-level stages ``level <attr>`` /
    ``expand <attr>``; anything else (morsel markers, baseline plan
    nodes) is ignored. The *last* record per attribute wins — kernels
    record each level exactly once, after the run.
    """
    wanted = set(order)
    observed: dict[str, int] = {}
    for record in stats.stages:
        parts = record.label.split(" ", 1)
        if len(parts) == 2 and parts[1] in wanted:
            observed[parts[1]] = record.size
    return observed


# ---------------------------------------------------------------------------
# the drift ledger
# ---------------------------------------------------------------------------

@dataclass
class Drift:
    """One input's accumulated delta since its generation began."""

    generation: int = 0
    #: The input's size when the generation began (0 = not yet noted).
    base: int = 0
    moved: int = 0


class FeedbackStore:
    """The drift ledger: per-input generations and the epoch they move.

    :class:`~repro.updates.session.QuerySession` reports every delta
    here. Deltas add up per input until they reach a churn fraction of
    the input's size (or a document edit forces a rebuild); then the
    input's *generation* advances and the :attr:`epoch` moves. The epoch
    moves otherwise only by hand (:meth:`bump_epoch`). It dates the
    racer's winners and the service's held plans: a plan is re-raced
    when its inputs drifted, never per update batch. The store also
    counts executed runs and the encoded inputs they built or reused.
    """

    def __init__(self):
        #: (scope, input) -> the input's drift ledger.
        self._drift: dict[tuple, Drift] = {}
        self.epoch = 0
        self.observations = 0
        self.inputs: dict[str, list[int]] = {}  #: name -> [built, reused]

    # -- update-layer hooks ------------------------------------------------

    def note_input_update(self, query: "MultiModelQuery", input_name: str,
                          *, moved: int = 0, size: int = 0,
                          fraction: float = 0.25,
                          churn: bool = False) -> None:
        """One input of *query* changed: count it against its generation.

        *moved* rows (of an input holding *size* before them) join the
        input's drift ledger. While the deltas since the generation
        began stay within *fraction* of the size the input had then,
        nothing else happens: the inputs were patched, and the plans
        raced over them still fit. Crossing it — or *churn*, a document
        edit that forced a rebuild — advances the input's generation and
        bumps the epoch (forcing a re-race)."""
        scope = query_signature(query)
        drift = self._drift.setdefault((scope, input_name), Drift())
        drift.base = drift.base or max(1, size)
        drift.moved += moved
        if churn or drift.moved > fraction * drift.base:
            self._drift[scope, input_name] = Drift(drift.generation + 1)
            self.epoch += 1

    def generations(self, query: "MultiModelQuery") -> dict[str, int]:
        """Per-input generation of *query*: how many times each input
        drifted past its churn fraction."""
        scope = query_signature(query)
        names = [relation.name for relation in query.relations] \
            + [binding.name for binding in query.twigs]
        fresh = Drift()
        return {name: self._drift.get((scope, name), fresh).generation
                for name in names}

    def bump_epoch(self) -> int:
        """Advance the epoch: forces a re-race by hand (the end-to-end
        harness does, per batch)."""
        self.epoch += 1
        return self.epoch

    # -- reporting ---------------------------------------------------------

    def count_inputs(self, stats: JoinStats) -> None:
        """Add *stats*' per-input built/reused counts to :attr:`inputs`
        (an executed query's, or a race's encodes)."""
        for name, (built, reused) in stats.inputs.items():
            totals = self.inputs.setdefault(name, [0, 0])
            totals[0] += built
            totals[1] += reused

    def stats(self) -> dict[str, int]:
        """Counters for dashboards and the service ``stats`` endpoint."""
        return {
            "epoch": self.epoch,
            "observations": self.observations,
            # name -> [built, reused], copied: the totals keep moving.
            "inputs": {name: list(counts)
                       for name, counts in self.inputs.items()},
        }

    def __repr__(self) -> str:
        return (f"FeedbackStore(epoch {self.epoch}, "
                f"{self.observations} observations)")


# ---------------------------------------------------------------------------
# bound-driven ordering (the ``bound`` policy)
# ---------------------------------------------------------------------------

#: Above this many attributes the subset DP (O(2^n * n)) yields to the
#: greedy smallest-extension heuristic.
MAX_DP_ATTRIBUTES = 12


def bound_order(query: "MultiModelQuery",
                stats: "QueryStatistics | None" = None) -> tuple[str, ...]:
    """The ``bound`` policy: the order minimising (max per-prefix bound,
    total, lexicographic).

    Subset DP: the bound on extending a bound set ``S`` by ``x``
    depends only on ``S``, so states are subsets carrying the best
    (worst-stage, sum-of-stages, cumulative, order) found — a heuristic
    DP (the cumulative is path-dependent) that is exact on the max
    criterion whenever extensions are monotone, and deterministic
    always via the lexicographic order tie-break.
    """
    stats = stats or statistics_for(query)
    attributes = query.attributes
    # No cross products: a set is extended by the attributes sharing a
    # joined input with it while there are any — the twig-side bounds
    # know no per-pair frequencies, so they cannot tell a connected
    # extension from a cartesian one.
    linked = linked_attributes(query)

    def extensions(chosen) -> "list[str]":
        rest = [a for a in attributes if a not in chosen]
        return [a for a in rest
                if any(a in linked[b] for b in chosen)] or rest

    if len(attributes) > MAX_DP_ATTRIBUTES:
        order: list[str] = []
        while len(order) < len(attributes):
            bound = set(order)
            order.append(min(extensions(bound), key=lambda attribute: (
                _extension_bound(query, attribute, bound, stats)[0],
                attribute)))
        return tuple(order)

    # DP over subsets: state value = (max stage bound, stage sum,
    # order tuple) minimised lexicographically; cumulative rides along.
    start: tuple[float, float, tuple[str, ...], float] = \
        (0.0, 0.0, (), 1.0)
    states: dict[frozenset, tuple[float, float, tuple[str, ...], float]] = {
        frozenset(): start}
    for _ in attributes:
        successors: dict[frozenset,
                         tuple[float, float, tuple[str, ...], float]] = {}
        for subset, (worst, total, order, cumulative) in states.items():
            for attribute in extensions(subset):
                extension, _source = _extension_bound(query, attribute,
                                                      set(subset), stats)
                stage = cumulative * extension
                candidate = (max(worst, stage), total + stage,
                             order + (attribute,), stage)
                key = subset | {attribute}
                incumbent = successors.get(key)
                if incumbent is None or candidate[:3] < incumbent[:3]:
                    successors[key] = candidate
        states = successors
    (_worst, _total, order, _cumulative), = states.values()
    return order


register_order_policy("bound", bound_order)


# ---------------------------------------------------------------------------
# plan racing
# ---------------------------------------------------------------------------

#: Order policies whose (deduplicated) picks seed the candidate grid.
RACE_POLICIES = ("appearance", "domain", "connected", "bound")

#: A challenger must beat the incumbent winner by this factor on the
#: race sample to dethrone it — hysteresis against timing noise.
HYSTERESIS = 1.25

#: Below this projected sample time (ms) a race round is pure noise:
#: nothing separates the candidates above the clock's resolution, so
#: the race resolves deterministically — the incumbent if one is still
#: racing, else the best-ranked candidate — rather than letting
#: scheduler jitter crown (and later dethrone) arbitrary winners on
#: micro-queries. Racing exists to correct big mistakes; a query whose
#: every candidate finishes in under half a millisecond has none.
MIN_SIGNAL_MS = 0.5

#: How many of the ranked candidates race (the static pick joins them).
TOP_K = 3

#: A race's first round covers this many level-0 codes per plan ...
SAMPLE_CODES = 64

#: ... and each round (and each slice within one) grows by this factor.
GROWTH = 4


@dataclass(frozen=True)
class RaceContender:
    """One raced candidate: its plan and last sampled wall time."""

    plan: QueryPlan
    sample_ms: float
    eliminated_round: int  # 0 = won


@dataclass(frozen=True)
class RaceReport:
    """The outcome of one race (or cache hit) for a query signature."""

    winner: QueryPlan
    contenders: tuple[RaceContender, ...] = ()
    rounds: int = 0
    raced: bool = False
    #: Encoded inputs built: one per (input, column order) not cached.
    encodes: int = 0


class PlanRacer:
    """Races the top-K candidate plans on budgeted key-domain samples.

    Candidates are every distinct (order policy pick, operator) pair,
    ranked by their worst-stage bound; the top :data:`TOP_K`
    (plus the static planner's own choice, as a guard) race on a
    :func:`~repro.parallel.slicing.sliced_instance` covering the first
    :data:`SAMPLE_CODES` codes of each candidate's own level-0 axis.
    Successive halving kills the slower half each round and grows the
    sample by :data:`GROWTH`; every round slices the one instance assembled
    per distinct order. The survivor is cached per query signature
    until the store's epoch moves.
    """

    def __init__(self, store: "FeedbackStore | None" = None):
        self.store = store if store is not None else FeedbackStore()
        #: scope -> (epoch at race time, winning plan).
        self._winners: dict[tuple, tuple[int, QueryPlan]] = {}
        self.races = 0
        #: Totals over every race: wall time, encoded inputs built.
        self.race_ms = 0.0
        self.encodes = 0

    # -- candidate generation ----------------------------------------------

    def candidates(self, query: "MultiModelQuery") -> list[QueryPlan]:
        """The top-K candidate plans, ranked by worst-stage bound."""
        operators = ["xjoin"] if query.twigs \
            else ["generic_join", "leapfrog"]
        seen: set[tuple] = set()
        ranked: list[tuple[float, str, QueryPlan]] = []
        for policy in RACE_POLICIES:
            order = attribute_order(query, policy)
            estimates = estimated_stage_sizes(query, order)
            worst = max((e.cumulative for e in estimates), default=0.0)
            for operator in operators:
                key = (order, operator)
                if key in seen:
                    continue
                seen.add(key)
                plan = QueryPlan(order=order, algorithm=operator,
                                 policy=policy)
                ranked.append((worst, policy, plan))
        ranked.sort(key=lambda item: (item[0], item[1]))
        top = [plan for _, _, plan in ranked[:TOP_K]]
        static = plan_query(query)
        if (static.order, static.algorithm) not in {
                (plan.order, plan.algorithm) for plan in top}:
            top.append(replace(static, twig_algorithms=(),
                               path_cardinalities=(),
                               partitions=1, partition_axis=None))
        return top

    # -- the race ----------------------------------------------------------

    def _sample(self, instances: "dict[tuple, EncodedInstance]",
                alive: "list[QueryPlan]", sample_codes: int) -> list[float]:
        """Projected full-run milliseconds of each *alive* plan.

        A plan's kernel runs over :func:`~repro.parallel.slicing.
        sliced_instance` views (shallow, of the one instance assembled
        in its order) of the first ``sample_codes`` codes of its own
        level-0 axis, and its time is extrapolated linearly to the
        axis' full code domain. The normalisation matters: candidates
        root different attributes, so without it a plan with a huge
        level-0 domain races a tiny fraction of its work against
        another plan's full run and looks spuriously fast.

        The codes are covered in slices growing by :data:`GROWTH`, all
        plans in step, and a plan that has lost the round stops there:
        were its remaining codes free, the time it has spent (above the
        noise floor) would still project past the round's best by more
        than :data:`HYSTERESIS`. Kernels cannot be interrupted, so this
        bounds the price of racing a bad order. The collector is off
        meanwhile, as ``timeit`` keeps it: a pause landing in one
        plan's sample is not that plan's time.
        """
        from repro.parallel.slicing import sliced_instance

        domains = [len(instances[plan.order].dictionaries[plan.order[0]]
                       .values) if plan.order else 0 for plan in alive]
        spent = [0.0] * len(alive)
        projected = list(spent)
        running = list(range(len(alive)))
        lo, width = 0, 1
        collecting = gc.isenabled()
        gc.disable()
        try:
            while running and lo < sample_codes:
                hi = min(lo + width, sample_codes)
                for index in running:
                    plan = alive[index]
                    view = sliced_instance(instances[plan.order], lo, hi)
                    start = time.perf_counter()
                    get_algorithm(plan.algorithm).run(view)
                    spent[index] += (time.perf_counter() - start) * 1e3
                    covered = min(hi, domains[index])
                    projected[index] = spent[index] * (
                        domains[index] / covered if covered else 1.0)
                best = min(projected[index] for index in running)
                running = [index for index in running
                           if hi < domains[index] and not (
                               spent[index] > MIN_SIGNAL_MS
                               and spent[index] * domains[index]
                               / min(sample_codes, domains[index])
                               > HYSTERESIS * best)]
                lo, width = hi, width * GROWTH
        finally:
            if collecting:
                gc.enable()
        return projected

    def race(self, query: "MultiModelQuery") -> RaceReport:
        """The winning plan for *query* (cached while the epoch holds).

        The clock decides only what it can tell apart: plans within
        :data:`HYSTERESIS` of a round's fastest are tied. A previous
        winner re-races as the *incumbent* and is re-crowned while it
        ties; otherwise the best-ranked of the final round's tied plans
        wins. Were the fastest sample simply crowned, near-tied
        candidates would flip with timing noise on small inputs, and
        every re-race could crown another plan, which a held read then
        has to be rebuilt for.
        """
        scope = query_signature(query)
        cached = self._winners.get(scope)
        if cached is not None and cached[0] == self.store.epoch:
            return RaceReport(winner=cached[1])
        incumbent = cached[1] if cached is not None else None
        started = time.perf_counter()
        contenders = self.candidates(query)
        if incumbent is not None and \
                (incumbent.order, incumbent.algorithm) not in {
                    (plan.order, plan.algorithm) for plan in contenders}:
            contenders.append(incumbent)
        if len(contenders) == 1:
            winner = contenders[0]
            self._winners[scope] = (self.store.epoch, winner)
            return RaceReport(winner=winner)

        def same(plan: QueryPlan, other: "QueryPlan | None") -> bool:
            return other is not None and \
                (plan.order, plan.algorithm) == \
                (other.order, other.algorithm)

        self.races += 1
        instances = {order: EncodedInstance.from_query(query, order)
                     for order in {plan.order for plan in contenders}}
        sample = SAMPLE_CODES
        alive = list(contenders)
        report: dict[tuple, RaceContender] = {}
        rounds = 0
        winner: "QueryPlan | None" = None
        while winner is None:
            rounds += 1
            timed = [(ms, index, alive[index]) for index, ms in
                     enumerate(self._sample(instances, alive, sample))]
            timed.sort(key=lambda item: item[:2])
            keep = max(1, len(timed) // 2)
            for position, (ms, _, plan) in enumerate(timed):
                report[(plan.order, plan.algorithm)] = RaceContender(
                    plan, ms, 0 if position < keep else rounds)
            # The plans the clock cannot tell from the round's fastest:
            # within HYSTERESIS of it, or under the noise floor.
            limit = max(timed[0][0] * HYSTERESIS, MIN_SIGNAL_MS)
            tied = [plan for ms, _, plan in timed if ms <= limit]
            if any(same(plan, incumbent) for plan in tied):
                winner = incumbent  # a statistical tie: it stays crowned
            elif keep == 1 or len(tied) == len(timed):
                # Decided: the best-ranked of the tied plans wins
                # (``contenders`` is in bound-rank order).
                winner = min(tied, key=contenders.index)
            else:
                incumbent = None  # beaten by a clear margin — out
                alive = [plan for _, _, plan in timed[:keep]]
                sample *= GROWTH
        self._winners[scope] = (self.store.epoch, winner)
        encoded = JoinStats()
        for instance in instances.values():
            encoded.count_inputs(instance)
        self.store.count_inputs(encoded)
        encodes = encoded.inputs_built
        self.encodes += encodes
        self.race_ms += (time.perf_counter() - started) * 1e3
        return RaceReport(winner=winner,
                          contenders=tuple(report.values()),
                          rounds=rounds, raced=True, encodes=encodes)

    def stats(self) -> dict[str, float]:
        """Counters for the service ``stats`` endpoint."""
        return {"races": self.races, "race_ms": round(self.race_ms, 3),
                "encodes": self.encodes}


# ---------------------------------------------------------------------------
# the adaptive planner facade
# ---------------------------------------------------------------------------

class AdaptivePlanner:
    """Plan racing dated by the drift ledger, in one.

    ``plan`` returns the raced (or cached) winner with its raw stage
    bounds and the static partition count; ``execute`` runs it. A plan
    is a function of the inputs' statistics and the race's clock: the
    winner holds until an input drifts past its churn fraction (or the
    epoch is bumped by hand), so a read-only workload races once.
    """

    def __init__(self, store: "FeedbackStore | None" = None):
        self.store = store if store is not None else FeedbackStore()
        self.racer = PlanRacer(self.store)

    @property
    def epoch(self) -> int:
        """The store's current epoch (dates the service's held plans)."""
        return self.store.epoch

    def plan(self, query: "MultiModelQuery", *,
             workers: int = 0) -> QueryPlan:
        """The adaptive plan: raced winner, raw stage bounds,
        the partition count :func:`~repro.engine.planner.choose_partitions`
        decides, planner-chosen twig matchers."""
        winner = self.racer.race(query).winner
        plan = plan_query(query, order=winner.order,
                          algorithm=winner.algorithm, workers=workers)
        plan = replace(plan, policy=winner.policy)
        estimates = estimated_stage_sizes(query, plan.order)
        return replace(plan, stage_estimates=tuple(
            (e.attribute, int(round(e.cumulative))) for e in estimates))

    def observe(self, query: "MultiModelQuery",
                order: "tuple[str, ...]", stats: JoinStats) -> None:
        """Count one executed run of *query* in *order* and the encoded
        inputs *stats* says it built or reused; it plans nothing."""
        self.store.observations += 1
        self.store.count_inputs(stats)

    def execute(self, query: "MultiModelQuery", *, workers: int = 0,
                stats: JoinStats | None = None) -> "Relation":
        """Plan adaptively, run, observe; returns the result relation."""
        plan = self.plan(query, workers=workers)
        stats = JoinStats() if stats is None else ensure_stats(stats)
        result = run_query(query, order=plan.order,
                           algorithm=plan.algorithm, stats=stats,
                           workers=workers)
        self.observe(query, plan.order, stats)
        return result

    def __repr__(self) -> str:
        return (f"AdaptivePlanner(epoch {self.epoch}, "
                f"{self.racer.races} races)")
