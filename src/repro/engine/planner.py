"""Stats-driven planning: attribute orders and algorithm choice.

Any attribute order keeps the worst-case optimal algorithms optimal (the
bound argument is order-independent), but constants differ wildly. The
planner chooses
both the expansion order and the algorithm from *cached* statistics:
per-relation :class:`~repro.relational.statistics.RelationStats` (kept
on the relation with its other artefacts, so repeated planning of the
same inputs never rescans ``distinct_values``, and they die with it)
plus per-twig-node candidate counts.

Order policies, preserved from the pre-engine planner as named strategies:

* ``appearance`` — relational schemas first, then twig pre-order (default).
* ``domain`` — globally sort by estimated candidate-domain size.
* ``connected`` — greedy: start from the attribute with the smallest
  candidate domain, then repeatedly pick an attribute sharing a hyperedge
  with the bound set, avoiding accidental cartesian expansions. The
  hypergraph it walks includes the twigs' A-D pair inputs (the inputs
  XJoin actually joins), so a cut ``u//l`` edge still connects ``u`` and
  ``l``; the paper's size bound stays over the P-C paths alone.

Both sort by :meth:`QueryStatistics.order_ranks`; every policy's pick
then passes through :func:`existential_last` and :func:`functional_next`
(:func:`policy_order`).

Further policies register themselves through
:func:`register_order_policy` — the adaptive layer
(:mod:`repro.engine.adaptive`) adds ``bound`` (UES/AGM upper-bound
driven) when :mod:`repro.engine` is imported.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core import multimodel
from repro.engine.encoded import EncodedInstance, relation_artefacts, \
    relation_columns
from repro.engine.interface import available_algorithms, get_algorithm
from repro.errors import PlanError
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.relational.statistics import RelationStats, column_stats_of_domain

if TYPE_CHECKING:
    from repro.core.multimodel import MultiModelQuery
    from repro.xml.columnar import DocumentStats
    from repro.xml.model import XMLDocument
    from repro.xml.twig import TwigQuery

# ---------------------------------------------------------------------------
# cached statistics
# ---------------------------------------------------------------------------

def cached_relation_stats(relation: Relation) -> RelationStats:
    """*relation*'s statistics, memoised per (live) relation object: a
    view of its one cold pass (:func:`relation_columns`), equal to a
    :func:`~repro.relational.statistics.relation_stats` rescan."""
    artefacts = relation_artefacts(relation)
    if "stats" not in artefacts:
        artefacts["stats"] = RelationStats(
            relation.name, len(relation),
            {attribute: column_stats_of_domain(attribute, dictionary.values,
                                               heaviest)
             for attribute, (dictionary, _codes, heaviest)
             in relation_columns(relation).items()})
    return artefacts["stats"]


def _input_stamp(query: "MultiModelQuery") -> tuple:
    """What *query*'s statistics are derived from: each relation and twig
    binding, held weakly (a relation version is a new object, and so is
    a binding swapped into the query), and each document's version (a
    document is patched in place). A live reference equals another only
    for the same object or an equal one, whose statistics are the
    same."""
    return (*map(weakref.ref, query.relations),
            *map(weakref.ref, query.twigs),
            *[binding.document.version for binding in query.twigs])


class QueryStatistics:
    """Cached per-input statistics for one multi-model query.

    Relation columns come from :func:`cached_relation_stats`; the twig
    side reads the columnar views and
    :class:`~repro.xml.columnar.DocumentStats` the bound documents hold —
    one stats source for relational and tree inputs alike.
    ``domain_estimate(a)`` is the smallest number of distinct values any
    input offers for attribute ``a`` — the planner's candidate-domain
    estimate (a twig node bound by identity offers one value per
    valueless candidate, as the tries do); ``path_cardinality_estimates``
    bounds each decomposed path relation by the document's matching
    chain count.
    """

    def __init__(self, query: "MultiModelQuery"):
        # Held weakly so the memoised statistics never pin a dropped
        # query (and its documents) in the module-level cache.
        self._query_ref = weakref.ref(query)
        self._restamp(query)

    def _restamp(self, query: "MultiModelQuery") -> None:
        """Empty the memo and stamp it with the inputs it will read
        (:func:`_input_stamp`)."""
        self._stamp = _input_stamp(query)
        self._estimates: dict[str, int] | None = None
        self._path_estimates: dict[str, int] | None = None
        self._twig_domains: dict | None = None
        self._ranks: dict[str, int] | None = None
        self._demoted: dict[tuple, tuple] = {}  #: existential_last answers
        self._functional: dict[tuple, tuple] = {}  #: functional_next answers

    @property
    def query(self) -> "MultiModelQuery":
        """The live query behind these statistics (PlanError if dropped)."""
        query = self._query_ref()
        if query is None:
            raise PlanError(
                "the query behind these statistics has been released")
        return query

    def relation_stats(self, relation: Relation) -> RelationStats:
        """One input relation's cached column statistics."""
        return cached_relation_stats(relation)

    def document_stats(self, document) -> "DocumentStats":
        """The bound document's cached summary (tag and path counts)."""
        from repro.xml.columnar import document_stats

        return document_stats(document)

    def twig_domains(self) -> dict[tuple[str, str], tuple[int, bool]]:
        """Per (twig name, attribute): (candidate-domain size, is the
        node existential — :meth:`ColumnarDocument.is_existential`?).
        Bound by value a node offers its distinct values; bound by
        identity (structural for its twig), each valueless candidate
        besides."""
        from repro.xml.columnar import columnar

        domains = self._twig_domains
        if domains is None:
            # Filled, then published whole: a planner racing on the same
            # cold query reads a finished dict or builds its own.
            domains = {}
            for binding in self.query.twigs:
                view = columnar(binding.document)
                structural = self.query.structural_attributes(binding)
                for node in binding.twig.nodes():
                    real, valueless = view.domain(node)
                    identity = node.name in structural
                    domains[binding.name, node.name] = (
                        real + (valueless if identity else bool(valueless)),
                        view.is_existential(node, identity))
            self._twig_domains = domains
        return domains

    def domain_estimates(self) -> dict[str, int]:
        """Smallest per-attribute distinct-value count any input offers."""
        if (found := self._estimates) is not None:
            return found
        estimates: dict[str, int] = {}

        def shrink(attribute: str, count: int) -> None:
            current = estimates.get(attribute)
            if current is None or count < current:
                estimates[attribute] = count

        for relation in self.query.relations:
            stats = self.relation_stats(relation)
            for attribute, column in stats.columns.items():
                shrink(attribute, column.distinct)
        for (_twig, attribute), (count, _existential) \
                in self.twig_domains().items():
            shrink(attribute, count)
        self._estimates = estimates
        return estimates

    def domain_estimate(self, attribute: str) -> int:
        """One attribute's candidate-domain estimate (0 if unbound)."""
        return self.domain_estimates().get(attribute, 0)

    def order_ranks(self) -> dict[str, int]:
        """What ``domain`` and ``connected`` sort by: the domain
        estimates, an existential attribute first. Bound, it pins every
        neighbour in its twig to one node's children, so it opens an
        order — or closes it as a test (:func:`existential_last`)."""
        ranks = self._ranks
        if ranks is None:
            ranks = dict(self.domain_estimates())
            ranks.update(
                (attribute, 1) for (_twig, attribute), (_count, opens)
                in self.twig_domains().items() if opens)
            self._ranks = ranks
        return ranks

    def path_cardinality_estimates(self) -> dict[str, int]:
        """Estimated size of each decomposed path relation, by name.

        The estimate is the document's matching P-C chain count from the
        cached path index — an upper bound on the distinct value tuples
        the path relation holds, with no document walk per query.
        """
        if (found := self._path_estimates) is not None:
            return found
        estimates: dict[str, int] = {}
        for binding in self.query.twigs:
            stats = self.document_stats(binding.document)
            for path in multimodel._decomposition(binding.twig).paths:
                tags = [node.tag for node in path.nodes]
                estimates[path.name] = stats.chain_count(tags)
        self._path_estimates = estimates
        return estimates


#: id(query) -> (weakref, its statistics): entries vanish with their
#: query, so nothing is pinned across queries.
_STATISTICS_BY_QUERY: "dict[int, tuple[weakref.ref, QueryStatistics]]" = {}


def statistics_for(query: "MultiModelQuery") -> QueryStatistics:
    """The (memoised) :class:`QueryStatistics` of *query*, derived again
    in place when an input was swapped or a document edited since."""
    key = id(query)
    entry = _STATISTICS_BY_QUERY.get(key)
    if entry is not None and entry[0]() is query:
        stats = entry[1]
        if stats._stamp != _input_stamp(query):
            stats._restamp(query)
        return stats
    stats = QueryStatistics(query)

    def evict(_ref: weakref.ref, key: int = key) -> None:
        _STATISTICS_BY_QUERY.pop(key, None)

    _STATISTICS_BY_QUERY[key] = (weakref.ref(query, evict), stats)
    return stats


def query_signature(query: "MultiModelQuery") -> tuple:
    """A structural key for *query*: input names, schemas, twig shapes.

    Queries with the same signature share a race winner and a drift
    ledger (:mod:`repro.engine.adaptive`): a snapshot's or a rebuilt
    query over the same inputs is planned like its source.
    """
    relations = tuple((relation.name, relation.schema.attributes)
                      for relation in query.relations)
    twigs = tuple(
        (binding.name,
         tuple((node.name, node.tag) for node in binding.twig.nodes()))
        for binding in query.twigs)
    return (query.name, relations, twigs)


# ---------------------------------------------------------------------------
# stage estimates (the UES/AGM-style upper-bound model)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageEstimate:
    """One expansion level's estimated output upper bound.

    ``extension`` is the per-prefix-tuple binding bound contributed by
    ``source`` (the tightest covering input); ``cumulative`` is the
    running product — the upper bound on partial tuples alive after
    this level, the quantity the planner wants small early.
    """

    attribute: str
    prefix: tuple[str, ...]
    source: str
    extension: float
    cumulative: float


def _extension_bound(query: "MultiModelQuery", attribute: str,
                     bound: "set[str]", stats: QueryStatistics
                     ) -> tuple[float, str]:
    """(bound, source input) on bindings of *attribute* per prefix tuple.

    For a relation sharing an already-bound attribute ``b``, at most
    ``max_frequency(b)`` rows — hence distinct *attribute* values —
    extend one prefix tuple; a disconnected input caps extensions at
    its distinct count. Twig inputs contribute their candidate-domain
    sizes (:meth:`QueryStatistics.twig_domains`: a node bound by
    identity counts one per candidate; the columnar stats carry no
    per-pair frequencies, so the twig-side bound is the loose one). The
    minimum over covering inputs is sound because every covering input
    must agree on the attribute's value.
    """
    best = math.inf
    source = ""
    for relation in query.relations:
        if attribute not in relation.schema.attributes:
            continue
        columns = stats.relation_stats(relation).columns
        shared = [b for b in relation.schema.attributes
                  if b in bound and b != attribute]
        if shared:
            extension = min(columns[b].max_frequency for b in shared)
        else:
            extension = columns[attribute].distinct
        if extension < best:
            best, source = extension, relation.name
    for (twig, name), (extension, _existential) \
            in stats.twig_domains().items():
        if name == attribute and extension < best:
            best, source = extension, twig
    if best is math.inf:  # unreachable for well-formed queries
        best = 1.0
    return float(best), source


def estimated_stage_sizes(query: "MultiModelQuery", order: "tuple[str, ...]",
                          stats: QueryStatistics | None = None
                          ) -> list[StageEstimate]:
    """Per-prefix output upper bounds (UES/AGM-style) for expanding
    *query* in *order*."""
    stats = stats or statistics_for(query)
    estimates: list[StageEstimate] = []
    cumulative = 1.0
    prefix: tuple[str, ...] = ()
    for attribute in order:
        extension, source = _extension_bound(query, attribute, set(prefix),
                                             stats)
        cumulative *= extension
        estimates.append(StageEstimate(attribute, prefix, source,
                                       extension, cumulative))
        prefix += (attribute,)
    return estimates


# ---------------------------------------------------------------------------
# order strategies
# ---------------------------------------------------------------------------

def appearance_order(query: "MultiModelQuery",
                     stats: QueryStatistics | None = None) -> tuple[str, ...]:
    """Relational attributes first, then twig attributes, as they appear."""
    return query.attributes


def domain_order(query: "MultiModelQuery",
                 stats: QueryStatistics | None = None) -> tuple[str, ...]:
    """Attributes sorted by estimated domain size (smallest first)."""
    estimates = (stats or statistics_for(query)).order_ranks()
    return tuple(sorted(query.attributes,
                        key=lambda a: (estimates.get(a, 0), a)))


def linked_attributes(query: "MultiModelQuery") -> dict[str, frozenset[str]]:
    """Per attribute, the attributes of the inputs XJoin joins on it
    (relations, path relations, A-D pair inputs), itself included."""
    edges = [relation.schema.attributes for relation in query.relations]
    for binding in query.twigs:
        decomposition = multimodel._decomposition(binding.twig)
        edges += [atom.attributes for atom
                  in decomposition.paths + decomposition.pairs]
    linked: dict[str, frozenset[str]] = {}
    for edge in edges:
        for attribute in edge:
            linked[attribute] = linked.get(attribute, frozenset()).union(edge)
    return linked


def connected_order(query: "MultiModelQuery",
                    stats: QueryStatistics | None = None) -> tuple[str, ...]:
    """Greedy connected order over the joined hypergraph (relations,
    path relations and A-D pair inputs)."""
    linked = linked_attributes(query)
    estimates = (stats or statistics_for(query)).order_ranks()
    rank = {a: (estimates.get(a, 0), a) for a in query.attributes}
    remaining = set(rank)
    order: list[str] = []
    connected: set[str] = set()
    while remaining:
        # Start (or restart on a disconnected part) from any attribute.
        pool = (connected & remaining) or remaining
        pick = min(pool, key=rank.__getitem__)
        order.append(pick)
        remaining.discard(pick)
        connected.update(linked[pick])
    return tuple(order)


ORDER_STRATEGIES: dict[str, Callable[["MultiModelQuery", QueryStatistics],
                                     tuple[str, ...]]] = {
    "appearance": appearance_order,
    "domain": domain_order,
    "connected": connected_order,
}


def register_order_policy(name: str,
                          strategy: Callable[["MultiModelQuery",
                                              QueryStatistics],
                                             tuple[str, ...]]) -> None:
    """Register an order policy under *name* (idempotent re-registration
    of the same callable is allowed; name collisions are an error).

    Registered policies are first-class: ``attribute_order`` calls them
    as ``strategy(query, statistics)``, ``run_query(order=name)``
    executes them, and the CLI's ``--order`` flag accepts them."""
    current = ORDER_STRATEGIES.get(name)
    if current is not None and current is not strategy:
        raise PlanError(f"order policy {name!r} is already registered")
    ORDER_STRATEGIES[name] = strategy


def existential_last(query: "MultiModelQuery", order: tuple[str, ...],
                     stats: QueryStatistics | None = None) -> tuple[str, ...]:
    """*order* with an existential attribute
    (:meth:`QueryStatistics.twig_domains`) moved to the end when the
    stage-estimate model puts the worst stage of the order without such
    attributes at no more than its candidate count: first it would open
    with the larger stage; last it is a test, not an enumeration
    (:func:`repro.core.validation.tested_attribute`). Every policy's
    pick passes through here (:func:`policy_order`); an explicit order
    is obeyed as given."""
    stats = stats or statistics_for(query)
    found = stats._demoted.get(order)
    if found is None:
        candidates = {attribute: count for (_twig, attribute), (count, opens)
                      in stats.twig_domains().items() if opens}
        if not candidates:
            return order
        rest = tuple(a for a in order if a not in candidates)
        worst = max((estimate.cumulative for estimate
                     in estimated_stage_sizes(query, rest, stats)),
                    default=1.0)
        moved = tuple(a for a in order if a in candidates
                      and worst <= candidates[a])
        found = stats._demoted[order] = \
            tuple(a for a in order if a not in moved) + moved
    return found


def functional_next(query: "MultiModelQuery", order: tuple[str, ...],
                    stats: QueryStatistics | None = None) -> tuple[str, ...]:
    """*order* with each functional twig child moved to right after its
    parent: a node on a child (``/``) edge, not existential
    (:meth:`QueryStatistics.twig_domains`), whose parent's every element
    has at most one child of its tag
    (:meth:`~repro.xml.columnar.ColumnarDocument.fan_out`). Bound there,
    it extends each prefix tuple by at most one value; bound later,
    every level between pays for the entries it would have joined.

    Only a child bound after its parent moves. One already in place —
    only ``/`` children of the parent between the two: the parent's
    *run* — stays with its parent, and the moved ones follow the run in
    their relative order, so the rewrite of its own output changes
    nothing. Only a child that could move has its fan-out read: DBLP's
    ``j`` and ``y``, bound before the tested ``a``, cost no scan."""
    stats = stats or statistics_for(query)
    found = stats._functional.get(order)
    if found is None:
        from repro.xml.columnar import columnar
        from repro.xml.twig import Axis

        position = {attribute: i for i, attribute in enumerate(order)}
        domains = stats.twig_domains()
        edges = sorted(
            ((position[node.name], binding, node)
             for binding in query.twigs for node in binding.twig.nodes()[1:]
             if node.axis is Axis.CHILD
             and position[node.name] > position[node.parent.name]),
            key=lambda edge: edge[0])
        follow: dict[str, list[str]] = {}  # parent -> its run, then moved
        following: set[str] = set()
        for at, binding, node in edges:
            parent = node.parent
            if node.name in following:
                continue  # bound in another twig too: placed once
            run = {child.name for child in parent.children
                   if child.axis is Axis.CHILD}
            if run.issuperset(order[position[parent.name] + 1:at]) or (
                    not domains[binding.name, node.name][1]
                    and columnar(binding.document).fan_out(
                        parent.tag, node.tag) <= 1):
                follow.setdefault(parent.name, []).append(node.name)
                following.add(node.name)
        placed: list[str] = []

        def place(attribute: str) -> None:
            placed.append(attribute)
            for child in follow.get(attribute, ()):
                place(child)

        for attribute in order:
            if attribute not in following:
                place(attribute)
        found = stats._functional[order] = tuple(placed)
    return found


def policy_order(query: "MultiModelQuery", pick: tuple[str, ...],
                 stats: QueryStatistics | None = None) -> tuple[str, ...]:
    """An order policy's *pick* as it runs: :func:`existential_last`,
    then :func:`functional_next`."""
    return functional_next(query, existential_last(query, pick, stats), stats)


def attribute_order(query: "MultiModelQuery",
                    order: "str | tuple[str, ...] | list[str] | None" = None,
                    stats: QueryStatistics | None = None
                    ) -> tuple[str, ...]:
    """Resolve an order argument: a strategy name, an explicit order, or
    None (the ``appearance`` default)."""
    if order is None:
        order = "appearance"
    if isinstance(order, str):
        try:
            strategy = ORDER_STRATEGIES[order]
        except KeyError:
            raise PlanError(
                f"unknown order policy {order!r}; "
                f"choose from {sorted(ORDER_STRATEGIES)!r}") from None
        return policy_order(query, strategy(query, stats), stats)
    explicit = tuple(order)
    if sorted(explicit) != sorted(query.attributes):
        raise PlanError(
            f"order {list(explicit)!r} is not a permutation of the query "
            f"attributes {sorted(query.attributes)!r}")
    return explicit


# ---------------------------------------------------------------------------
# query plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryPlan:
    """One planned execution for a multi-model query.

    Everything comes from a single stats source (cached relation stats +
    cached document stats): the expansion order, the join operator, the
    per-twig matching algorithm (consumed by the baseline's twig
    sub-query and the CLI's A/B override), and the path-relation
    cardinality estimates that justify the order.
    """

    order: tuple[str, ...]
    algorithm: str
    policy: str
    #: (twig name, twig algorithm name) per twig input.
    twig_algorithms: tuple[tuple[str, str], ...] = ()
    #: (path relation name, estimated cardinality) per decomposed path.
    path_cardinalities: tuple[tuple[str, int], ...] = ()
    #: (twig name, attribute whose level validates the twig's structure)
    #: per twig input; None = skipped, the join implies an embedding
    #: (:func:`repro.core.validation.validation_points`, read off the
    #: inputs' current version: :class:`PreparedQuery` encodes with it).
    validation: tuple[tuple[str, str | None], ...] = ()
    #: The order's last attribute when XJoin tests it for a witness
    #: instead of enumerating it (derived like ``validation``:
    #: :func:`repro.core.validation.tested_attribute`).
    tested: str | None = None
    #: Morsel count for partition-parallel execution (1 = serial).
    partitions: int = 1
    #: The attribute whose domain the partitions slice (None = serial).
    partition_axis: str | None = None
    #: (attribute, estimated live tuples after its level) per stage —
    #: filled by the adaptive planner / ``repro explain``; empty for
    #: plain static plans.
    stage_estimates: tuple[tuple[str, int], ...] = ()

    def twig_algorithm(self, twig_name: str) -> str | None:
        """The planned matcher for one twig input (None if unknown)."""
        for name, algorithm in self.twig_algorithms:
            if name == twig_name:
                return algorithm
        return None

    def __repr__(self) -> str:
        twigs = (f", twigs={dict(self.twig_algorithms)!r}"
                 if self.twig_algorithms else "")
        parallel = (f", partitions={self.partitions} "
                    f"on {self.partition_axis!r}"
                    if self.partitions > 1 else "")
        return (f"QueryPlan({self.algorithm!r}, policy={self.policy!r}, "
                f"order={list(self.order)!r}{twigs}{parallel})")


def choose_order_policy(query: "MultiModelQuery",
                        stats: QueryStatistics | None = None) -> str:
    """Pick an order policy from the domain-size spread.

    Uniform domains gain nothing from reordering, so keep the appearance
    order; skewed domains (some attribute much more selective than
    another) benefit from expanding small, connected domains first.
    """
    estimates = (stats or statistics_for(query)).order_ranks()
    sizes = [size for size in estimates.values() if size > 0]
    if len(sizes) >= 2 and max(sizes) >= 4 * min(sizes):
        return "connected"
    return "appearance"


def choose_twig_algorithm(document: "XMLDocument",
                          twig: "TwigQuery") -> str:
    """The twig matcher to run: ``accel``, for every twig.

    The measured matcher x shape x corpus matrix
    (``docs/twig_algorithms.md``) supports no other rule: the
    level-at-a-time columnar kernel (:mod:`repro.xml.accel`) is the
    fastest registered matcher on chains and branches, on either axis,
    with or without value predicates, in memory and on attached arenas.
    The other matchers stay reachable by name (``--twig-algorithm``).
    """
    return "accel"


#: Minimum top-level codes per morsel. The batch buffer kernels
#: (galloping seek, k-way array intersection) drive per-code cost so low
#: that a morsel's fixed overhead — queue hop, slice clone, result
#: pickle — dominates thin slices; don't cut pieces smaller than this.
MIN_CODES_PER_MORSEL = 4


def choose_partitions(query: "MultiModelQuery", order: tuple[str, ...],
                      workers: int, stats: QueryStatistics | None = None
                      ) -> tuple[int, str | None]:
    """Pick (morsel count, partition axis) from cached statistics.

    The one place the morsel count of a planned query is decided. The
    axis is the resolved order's first attribute — the variable the
    parallel executor slices at the top of every trie descent. The
    morsel count follows the work-stealing sizing rule
    (:func:`~repro.parallel.partition.choose_morsel_count`: a fixed
    number of morsels per worker, capped by the axis' static domain
    estimate): enough pieces that the queue can rebalance skew, never
    more pieces than the domain has distinct values — and never slices
    thinner than :data:`MIN_CODES_PER_MORSEL` codes, where the batch
    kernels' speed makes morsel overhead the dominant cost. One
    partition means "run serially".
    """
    if workers <= 1 or not order:
        return 1, None
    from repro.parallel.partition import choose_morsel_count

    axis = order[0]
    domain = (stats or statistics_for(query)).domain_estimate(axis)
    count = choose_morsel_count(workers, domain)
    count = min(count, max(1, domain // MIN_CODES_PER_MORSEL))
    return (count, axis) if count > 1 else (1, None)


def choose_algorithm(query: "MultiModelQuery") -> str:
    """Pick an algorithm: XJoin whenever a twig participates (it is the
    only worst-case optimal operator over the combined hypergraph);
    hashed generic join for purely relational queries. LFTJ expands the
    same frontier, but meets a level's sorted key buffers with a Python
    probe loop, which the C-level key-view ``&`` beats on this substrate
    (~3x on ``rel_triangle``'s tries, ~1.2x over their frozen CSR form)."""
    if query.twigs:
        return "xjoin"
    return "generic_join"


def plan_query(query: "MultiModelQuery", *,
               order: "str | tuple[str, ...] | list[str] | None" = None,
               algorithm: str | None = None,
               twig_algorithm: str | None = None,
               workers: int | None = None) -> QueryPlan:
    """Resolve order, join operator and twig matchers (explicit args win).

    ``twig_algorithm`` forces one matcher for every twig input (the
    CLI's ``--twig-algorithm`` A/B override); by default each twig gets
    the :func:`choose_twig_algorithm` pick for its document. With
    ``workers`` the plan also carries a partition count and axis for the
    parallel executor (see :func:`choose_partitions`).
    """
    stats = statistics_for(query)
    if algorithm is None:
        algorithm = choose_algorithm(query)
    elif algorithm not in available_algorithms():
        raise PlanError(
            f"unknown join algorithm {algorithm!r}; "
            f"choose from {available_algorithms()!r}")
    if order is None:
        policy = choose_order_policy(query, stats)
        resolved = attribute_order(query, policy, stats)
    else:
        policy = order if isinstance(order, str) else "given"
        resolved = attribute_order(query, order, stats)

    twig_algorithms: list[tuple[str, str]] = []
    if query.twigs:
        from repro.xml.interface import (
            available_twig_algorithms,
            get_twig_algorithm,
        )

        if twig_algorithm is not None \
                and twig_algorithm not in available_twig_algorithms():
            raise PlanError(
                f"unknown twig algorithm {twig_algorithm!r}; "
                f"choose from {available_twig_algorithms()!r}")
        for binding in query.twigs:
            name = twig_algorithm or choose_twig_algorithm(binding.document,
                                                           binding.twig)
            if not get_twig_algorithm(name).supports(binding.twig):
                raise PlanError(
                    f"twig algorithm {name!r} cannot evaluate twig "
                    f"{binding.name!r} (e.g. 'pathstack' on a branching "
                    f"twig)")
            twig_algorithms.append((binding.name, name))
    path_cardinalities = tuple(
        sorted(stats.path_cardinality_estimates().items())
    ) if query.twigs else ()
    validation: tuple[tuple[str, str | None], ...] = ()
    tested = None
    if query.twigs and algorithm == "xjoin":
        from repro.core.validation import tested_attribute, validation_points

        points = validation_points(query, resolved)
        validation = tuple(points.items())
        tested = tested_attribute(query, resolved, points)
    partitions, partition_axis = choose_partitions(
        query, resolved, workers or 1, stats)
    return QueryPlan(order=resolved, algorithm=algorithm, policy=policy,
                     twig_algorithms=tuple(twig_algorithms),
                     path_cardinalities=path_cardinalities,
                     validation=validation, tested=tested,
                     partitions=partitions, partition_axis=partition_axis)


class PreparedQuery:
    """*plan* — :func:`plan_query`'s for *query*, whose validation
    points it carries — bound to the query's inputs at this version:
    the kernel and the encoded instance, made once. :meth:`run` runs
    again while the inputs hold; a document is patched in place, so a
    holder drops it at the first write."""

    def __init__(self, query: "MultiModelQuery", plan: QueryPlan):
        self.query, self.plan = query, plan
        self.kernel = get_algorithm(plan.algorithm)
        # The baseline evaluates from the source inputs: no tries.
        self.instance = EncodedInstance.reference(query) \
            if plan.algorithm == "baseline" else EncodedInstance.from_query(
                query, plan.order, tested=plan.tested,
                points=dict(plan.validation) if plan.validation else None)

    def run(self, stats: JoinStats | None = None) -> Relation:
        """Run the kernel; a re-run counts every input as reused."""
        stats = ensure_stats(stats)
        stats.count_inputs(self.instance)
        self.instance.built = (False,) * len(self.instance.tries)
        result = self.kernel.run(self.instance, stats=stats)
        # Only the relational kernels return the whole expansion order.
        attributes = self.instance.attributes
        if result.schema.attributes != attributes:
            result = result.project(attributes, name=self.instance.name)
        return result


prepare = PreparedQuery  #: ``prepare(query, plan).run(stats)``


def run_query(query: "MultiModelQuery", *,
              order: "str | tuple[str, ...] | list[str] | None" = None,
              algorithm: str | None = None,
              stats: JoinStats | None = None,
              workers: int = 0) -> Relation:
    """Plan, prepare and run *query* through the encoded engine.

    With ``workers > 1`` execution is delegated to the partition-parallel
    executor (:mod:`repro.parallel.executor`): the instance is still
    encoded once, then sliced on the plan's partition axis and evaluated
    by a morsel-driven worker pool. Results are identical to the serial
    path for every registered algorithm.
    """
    stats = ensure_stats(stats)
    if workers > 1:
        # Imported lazily: repro.parallel sits above the planner layer.
        from repro.parallel.executor import ParallelExecutor

        return ParallelExecutor(workers).run_query(
            query, order=order, algorithm=algorithm, stats=stats)
    plan = plan_query(query, order=order, algorithm=algorithm)
    with stats.phase("encode"):
        prepared = prepare(query, plan)
    return prepared.run(stats)
