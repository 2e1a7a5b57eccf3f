"""The built-in :class:`JoinAlgorithm` implementations.

All four algorithm families run through one
:class:`~repro.engine.encoded.EncodedInstance`:

* :class:`GenericJoinAlgorithm` — NPRR-style hashed trie descent;
* :class:`LeapfrogTriejoinAlgorithm` — LFTJ sorted seeks, now plain int
  comparisons (code order == value order);
* :class:`XJoinAlgorithm` — the paper's Algorithm 1 over relations, twig
  path tries and A-D pair tries together; twig structure is validated
  at the level that completes each twig, memoised on its code
  projection (values are decoded only on a memo miss);
* :class:`BaselineJoinAlgorithm` — the traditional dual-engine baseline.
  It deliberately bypasses the encoded tries: it *is* the paper's foil
  (binary relational plans + TwigStack, joined at the end), so it runs
  from the source query while sharing the unified invocation surface.

The kernels preserve the stage/emit/filter stats contract of the
pre-engine implementations (per-level ``record_stage`` sizes — the
quantity Lemma 3.5 bounds — plus emit and filter counters). Seek counts
remain per-probe but run slightly lower than the pre-engine numbers: the
last-level fast paths no longer probe the seeding trie against itself,
and LFTJ's innermost level now runs as one batch
:func:`~repro.buffers.kernels.intersect_many` call over the raw key
buffers (each galloping probe counts as one seek and one comparison),
so seek totals are comparable across engine algorithms, not across
engine versions. The hashed kernels (GenericJoin, XJoin) keep dict
membership probes at the last level: an O(1) hash probe beats a Python
galloping loop when the non-seed side is a hash map rather than a
sorted buffer.
"""

from __future__ import annotations

from repro.buffers.kernels import intersect_many
from repro.engine.encoded import EncodedInstance, EncodedTrieIterator
from repro.engine.interface import register
from repro.errors import EngineError
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def _reject_twig_instance(algorithm: str, instance: EncodedInstance) -> None:
    """The relational kernels evaluate the *value* join only: they know
    nothing of twig structure validation or surrogate erasure, so running
    them on a twig-bearing instance would silently return wrong tuples.
    A trie-less reference instance (the baseline's) is equally unusable —
    the kernels would take the 0-ary branch and emit a bogus TRUE."""
    if instance.query is not None and instance.query.twigs:
        raise EngineError(
            f"{algorithm!r} cannot evaluate twig inputs (the instance "
            f"carries twig structure filters); use the 'xjoin' algorithm")
    if not instance.tries and instance.relations:
        raise EngineError(
            f"{algorithm!r} needs an encoded instance with tries; this "
            f"one is a trie-less reference instance (baseline only)")


class GenericJoinAlgorithm:
    """Attribute-at-a-time expansion with hashed trie descent."""

    name = "generic_join"

    def run(self, instance: EncodedInstance, *,
            stats: JoinStats | None = None) -> Relation:
        """Evaluate the instance by hashed attribute-at-a-time descent."""
        _reject_twig_instance(self.name, instance)
        stats = ensure_stats(stats)
        order = instance.order
        depth = len(order)
        participation = instance.participation
        nodes = [trie.root for trie in instance.tries]

        stats.start_timer()
        rows: list[tuple[int, ...]] = []
        binding: list[int] = []
        alive = [0] * depth
        seeks = 0  # flushed in one bulk count; a call per probe is hot

        def search(level: int) -> None:
            nonlocal seeks
            participants = participation[level]
            candidate_nodes = [nodes[i] for i in participants]
            # The relation with the fewest continuations seeds the level.
            seed = min(candidate_nodes, key=len)
            if level + 1 == depth:
                # Last level: no descent needed, emit the intersection.
                prefix = tuple(binding)
                produced = 0
                others = [node.children for node in candidate_nodes
                          if node is not seed]
                if others:
                    for code in seed.keys:
                        feasible = True
                        for children in others:
                            seeks += 1
                            if code not in children:
                                feasible = False
                                break
                        if feasible:
                            rows.append(prefix + (code,))
                            produced += 1
                else:
                    seeks += len(seed.keys)
                    rows.extend(prefix + (code,) for code in seed.keys)
                    produced = len(seed.keys)
                alive[level] += produced
                stats.count_emitted(produced)
                return
            for code in seed.keys:
                children = []
                feasible = True
                for node in candidate_nodes:
                    seeks += 1
                    child = node.children.get(code)
                    if child is None:
                        feasible = False
                        break
                    children.append(child)
                if not feasible:
                    continue
                for participant, child in zip(participants, children):
                    nodes[participant] = child
                binding.append(code)
                alive[level] += 1
                search(level + 1)
                binding.pop()
                # candidate_nodes still holds this level's entry state.
                for participant, old in zip(participants, candidate_nodes):
                    nodes[participant] = old

        if depth == 0:
            rows.append(())
        else:
            search(0)
            stats.count_seeks(seeks)
            for level, count in enumerate(alive):
                stats.record_stage(f"level {order[level]}", count)
        stats.stop_timer()
        return instance.result_relation(rows)


class LeapfrogTriejoinAlgorithm:
    """Veldhuizen's LFTJ: leapfrogging sorted trie iterators per level."""

    name = "leapfrog"

    def run(self, instance: EncodedInstance, *,
            stats: JoinStats | None = None) -> Relation:
        """Evaluate the instance by leapfrogging sorted trie iterators."""
        _reject_twig_instance(self.name, instance)
        stats = ensure_stats(stats)
        order = instance.order
        depth = len(order)
        iterators = [EncodedTrieIterator(trie) for trie in instance.tries]
        participants: list[list[EncodedTrieIterator]] = [
            [iterators[i] for i in level]
            for level in instance.participation]

        stats.start_timer()
        rows: list[tuple[int, ...]] = []
        binding: list[int] = []
        alive = [0] * depth
        comparisons = 0  # flushed in bulk; a counter call per key is hot
        seeks = 0

        def search(level: int) -> None:
            nonlocal comparisons, seeks
            its = participants[level]
            for it in its:
                it.open()
            produced = 0
            if level + 1 == depth:
                # Innermost level: one batch k-way intersection over the
                # raw key buffers replaces per-element leapfrogging. Each
                # galloping probe counts as one seek and one comparison.
                common, probes = intersect_many(
                    [it.current_keys() for it in its])
                seeks += probes
                comparisons += probes
                prefix = tuple(binding)
                rows.extend(prefix + (code,) for code in common)
                produced = len(common)
            elif not any(it.at_end() for it in its):
                its_sorted = sorted(its, key=EncodedTrieIterator.key)
                count = len(its_sorted)
                p = 0
                max_key = its_sorted[-1].key()
                while True:
                    it = its_sorted[p]
                    least = it.key()
                    comparisons += 1
                    if least == max_key:
                        binding.append(least)
                        produced += 1
                        search(level + 1)
                        binding.pop()
                        it.next()
                        seeks += 1
                        if it.at_end():
                            break
                        max_key = it.key()
                    else:
                        it.seek(max_key)
                        seeks += 1
                        if it.at_end():
                            break
                        max_key = it.key()
                    p = (p + 1) % count
            alive[level] += produced
            for it in its:
                it.up()

        if depth == 0:
            rows.append(())
        else:
            search(0)
            stats.count_comparisons(comparisons)
            stats.count_seeks(seeks)
            stats.count_emitted(len(rows))
            for level, count in enumerate(alive):
                stats.record_stage(f"level {order[level]}", count)
        stats.stop_timer()
        return instance.result_relation(rows)


class XJoinAlgorithm:
    """The paper's Algorithm 1 over the combined relational+twig tries.

    Trie descent runs on codes, and the A-D pair tries prune there like
    any other input. At a level that binds a twig's last attribute the
    twig's structure check runs on the code projection of the binding
    (``instance.twig_filters.checks``); a rejected prefix is never
    expanded further.
    """

    name = "xjoin"

    def run(self, instance: EncodedInstance, *,
            stats: JoinStats | None = None) -> Relation:
        """Evaluate the combined relational+twig instance (Algorithm 1),
        projected onto the query attributes with surrogates erased."""
        stats = ensure_stats(stats)
        query = instance.query
        if query is None:
            raise EngineError(
                "xjoin needs an instance built with EncodedInstance."
                "from_query (it carries the twig-side filters)")
        if not instance.tries and (query.relations or query.twigs):
            raise EngineError(
                "'xjoin' needs an encoded instance with tries; this one "
                "is a trie-less reference instance (baseline only)")
        filters = instance.twig_filters
        expansion = instance.order
        depth = len(expansion)

        # Any empty input empties the whole join; bail out before
        # expanding (this also keeps Lemma 3.5 exact when the AGM bound
        # is zero — otherwise early attributes could briefly accumulate
        # partial tuples that a later, empty input would discard).
        if instance.has_empty_input():
            stats.record_stage("empty input", 0)
            return Relation(query.name, Schema(query.attributes))

        participation = instance.participation
        nodes = [trie.root for trie in instance.tries]
        checks = filters.checks if filters else [[] for _ in expansion]

        stats.start_timer()
        rows: list[tuple[int, ...]] = []
        binding: list[int] = []
        alive = [0] * depth  # per level, counted before its checks run
        seeks = 0  # flushed in one bulk count; a call per probe is hot
        filtered = 0

        def structure_valid(level_checks, codes) -> bool:
            """Every twig completed at this level embeds with *codes*."""
            for positions, validator in level_checks:
                if not validator.admits(
                        tuple([codes[p] for p in positions])):
                    return False
            return True

        def search(level: int) -> None:
            nonlocal seeks, filtered
            participants = participation[level]
            participant_nodes = [nodes[i] for i in participants]
            seed = min(participant_nodes, key=len)
            level_checks = checks[level]
            if level + 1 == depth:
                # Last level: no descent needed, filter + emit in place.
                prefix = tuple(binding)
                others = [node.children for node in participant_nodes
                          if node is not seed]
                for code in seed.keys:
                    feasible = True
                    for children in others:
                        seeks += 1
                        if code not in children:
                            feasible = False
                            break
                    if not feasible:
                        continue
                    alive[level] += 1
                    row = prefix + (code,)
                    if level_checks and not structure_valid(level_checks,
                                                            row):
                        filtered += 1
                        continue
                    rows.append(row)
                return
            for code in seed.keys:
                children = []
                feasible = True
                for node in participant_nodes:
                    seeks += 1
                    child = node.children.get(code)
                    if child is None:
                        feasible = False
                        break
                    children.append(child)
                if not feasible:
                    continue
                alive[level] += 1
                binding.append(code)
                if level_checks and not structure_valid(level_checks,
                                                        binding):
                    filtered += 1
                    binding.pop()
                    continue
                for participant, child in zip(participants, children):
                    nodes[participant] = child
                search(level + 1)
                # participant_nodes still holds this level's entry state.
                for participant, old in zip(participants, participant_nodes):
                    nodes[participant] = old
                binding.pop()

        if depth == 0:
            rows.append(())
        else:
            search(0)
            stats.count_seeks(seeks)
            stats.count_filtered(filtered)
            stats.count_emitted(len(rows))
            for level, count in enumerate(alive):
                stats.record_stage(f"expand {expansion[level]}", count)
        stats.stop_timer()
        result = instance.result_relation(rows, name=query.name)
        if instance.erase_structural:
            from repro.core.surrogate import erase_surrogates

            result = Relation(query.name, result.schema,
                              [erase_surrogates(row) for row in result])
        return result.project(query.attributes, name=query.name)


class BaselineJoinAlgorithm:
    """Adapter: the traditional dual-engine plan behind the unified
    interface. Evaluates the relational sub-query with binary join plans
    and each twig with TwigStack, then joins the two results — on the
    *source* inputs, since being unencoded is the point of the foil."""

    name = "baseline"

    def run(self, instance: EncodedInstance, *,
            stats: JoinStats | None = None) -> Relation:
        """Evaluate the source query with the traditional dual-engine
        plan (binary joins + TwigStack, joined at the end)."""
        from repro.core.baseline import baseline_join
        from repro.core.multimodel import MultiModelQuery

        query = instance.query
        if query is None:
            query = MultiModelQuery(instance.relations, name=instance.name)
        return baseline_join(query, stats=stats)


GENERIC_JOIN = register(GenericJoinAlgorithm())
LEAPFROG = register(LeapfrogTriejoinAlgorithm())
XJOIN = register(XJoinAlgorithm())
BASELINE = register(BaselineJoinAlgorithm())
