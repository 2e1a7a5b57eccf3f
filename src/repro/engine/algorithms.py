"""The built-in :class:`JoinAlgorithm` implementations.

All four algorithm families run through one
:class:`~repro.engine.encoded.EncodedInstance`:

* :class:`GenericJoinAlgorithm` — NPRR-style attribute-at-a-time
  expansion over the hashed tries;
* :class:`LeapfrogTriejoinAlgorithm` — LFTJ: the same expansion, each
  level met by intersecting sorted key buffers (code order == value
  order);
* :class:`XJoinAlgorithm` — the paper's Algorithm 1 over relations, twig
  path tries and A-D pair tries together; twig structure is validated
  at the level that completes each twig, once per distinct code
  projection of the frontier;
* :class:`BaselineJoinAlgorithm` — the traditional dual-engine baseline.
  It deliberately bypasses the encoded tries: it *is* the paper's foil
  (binary relational plans + TwigStack, joined at the end), so it runs
  from the source query while sharing the unified invocation surface.

All three are one **level-at-a-time** function, :func:`_frontier_join`:
Algorithm 1 as the paper writes it, breadth first. The frontier — every
partial tuple alive after a level — is a set of parallel lists: one
code column per bound attribute and, per trie descended so far, what
each entry holds of it. A level is a handful of C-level passes over
them (``map``, ``itertools.chain/repeat/compress``); Python runs per
level, never per binding. The frontier's length after a level *is* that
level's stage size — the quantity Lemma 3.5 bounds. A frontier longer
than :data:`_CHUNK` is cut into slices that are expanded one after the
other (breadth first inside a chunk, depth first over chunks), so
transient memory is O(chunk x fan-out x depth) whatever the stage sizes
are; stage counts and level times are summed across chunks.

Only the per-level *step* — how one level's candidate sets are met —
depends on the algorithm that calls the kernel (Abo Khamis–Ngo–Suciu
treat generic join and LFTJ as one family under one bound):
:class:`_Hashed` (``generic_join``, ``xjoin``) meets key views with
C-level ``&``, :class:`_Sorted` (``leapfrog``) meets sorted key buffers
with the forward-only intersections of :mod:`repro.buffers.kernels`.
A hashed run meets the order's last level with :class:`_Masked` when
that level is expanded (not level 0), has two or more participants and
every one is masked (:func:`_masked`): each trie's last-level nodes
carry ``bits``, an int with bit *c* set iff *c* is a child key, built
once per trie the first time a run meets it there, and only if they
spend at most :data:`_MASK_BITS` bits per stored row. The frontier
then holds those ints, ANDs them per entry, counts survivors with
``int.bit_count`` and decodes only the non-empty masks.

One level may be a *witness test* instead: XJoin's last level, when its
attribute is existential (``TwigFilters.tested``), keeps the entries
whose candidate sets share a code without expanding them — stage =
survivors.

The last level may come back *unexpanded*: where a plain meet
(:class:`_Hashed`, :class:`_Sorted`; not masked, not tested) binds it
and no structure check runs there, a chunk whose rows per live entry
reach the crossover of its prefix width (:data:`_FAN_OUT`) hands back
its prefix code columns, the per-entry candidate sets and their sizes
instead of spreading every prefix column to every row; the decoder
makes the rows entry by entry
(:meth:`~repro.engine.encoded.EncodedInstance.result_relation`). A
chunk below the crossover is expanded as any other level.

Counters. Stages (``level <a>`` / ``expand <a>``), ``emitted`` and
``filtered`` mean what they always did; an unexpanded last level's
stage and ``emitted`` are its summed candidate-set sizes, its seeks
and time are counted as an expanded level's. ``seeks`` of the frontier
kernel are the *candidates examined*: per level, summed over the
frontier entries, the size of the smallest candidate set among the
level's participants (the side the C intersection iterates; tries not
yet descended share one root and are pooled into one set, intersected
once; a tested level counts the same sets, an upper bound on what its
short-circuiting probes examine). The sorted step counts the same number
as ``comparisons`` too — one probe per candidate of the smallest set,
an upper bound on what :func:`~repro.buffers.kernels.intersect_pair`
probes (it stops when the larger buffer runs out). A masked level
counts each mask's set bits, kept with the mask as its node's child
count (:class:`_Mask`): the same sets, the same seeks. Both are
computed in bulk, only for a stats object that asks for them
(``JoinStats.counting``: not the null object, not a
:class:`~repro.instrumentation.StageStats`), as are the per-level wall
times recorded in ``JoinStats.phase_times`` under each stage's label.
Seek totals are comparable across engine algorithms, not across engine
versions.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, repeat
from operator import and_, attrgetter, getitem, methodcaller
from time import perf_counter

from repro.buffers.kernels import intersect_many, intersect_pair
from repro.engine.encoded import EncodedInstance
from repro.engine.interface import register
from repro.errors import EngineError
from repro.instrumentation import JoinStats, ensure_stats
from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: Frontier entries expanded together; longer frontiers are cut up.
_CHUNK = 4096

#: Mask bits a trie may spend per stored row: a trie whose last-level
#: nodes' masks (largest key + 1 bits each) add up to more stays
#: unmasked (see :func:`_masked`).
_MASK_BITS = 256

#: Rows per live entry from which a chunk's last level is left
#: unexpanded (:func:`_frontier_join`) and its rows are made entry by
#: entry, with one prefix column; with *w* the crossover is
#: ``_FAN_OUT / w ** 1.5`` (12, 4.2, 2.3 for 1, 2, 3 columns and more;
#: ``inf`` never, 0 always). Measured in process on R(a, b) ... S(b, c)
#: chains, 1 000 entries a run, median of 300 alternating runs: with one
#: prefix column the per-entry build breaks even at ~12 rows per entry,
#: with two at ~4, with three at ~2.5. ``mm_xmark``'s last level makes
#: 11.4 rows per entry over three columns; Figure 3's,
#: ``rel_triangle``'s and the served bookstore query's 1.0-1.06.
_FAN_OUT = 12

_children = attrgetter("children")
_keys = attrgetter("keys")
_bits = attrgetter("bits")
_bit = (1).__lshift__


class _Mask(int):
    """A last-level node's ``bits`` with its child count, ``size``: a
    counted run takes a masked level's seeks from it, not from
    ``int.bit_count`` over masks thousands of bits wide. ``&`` of two
    masks is a plain ``int``."""


_size = attrgetter("size")


def _reject_twig_instance(algorithm: str, instance: EncodedInstance) -> None:
    """The relational kernels evaluate the *value* join only: they know
    nothing of twig structure validation or surrogate erasure, so running
    them on a twig-bearing instance would silently return wrong tuples.
    A trie-less reference instance (the baseline's) is equally unusable —
    the kernels would take the 0-ary branch and emit a bogus TRUE."""
    if instance.twigs:
        raise EngineError(
            f"{algorithm!r} cannot evaluate twig inputs (the instance "
            f"carries twig structure filters); use the 'xjoin' algorithm")
    if not instance.tries and instance.relations:
        raise EngineError(
            f"{algorithm!r} needs an encoded instance with tries; this "
            f"one is a trie-less reference instance (baseline only)")


def _empty_result(stats: JoinStats, name: str, attributes) -> Relation:
    """Any empty input empties the whole join; the kernels bail out
    before expanding (this also keeps Lemma 3.5 exact when the AGM bound
    is zero — otherwise early attributes could briefly accumulate
    partial tuples that a later, empty input would discard)."""
    stats.record_stage("empty input", 0)
    return Relation(name, Schema(attributes))


def _candidates(root):
    """An undescended trie's candidate set. It is the root's ``keys``
    buffer: a slice restricts ``keys`` while *sharing* ``children``
    (:func:`repro.parallel.slicing.sliced_trie`), so only a root whose
    two agree may stand in its O(1) key view."""
    children = root.children
    return children.keys() if len(children) == len(root.keys) \
        else set(root.keys)


class _Hashed:
    """Hashed tries: an entry holds a descended trie's ``children``
    mapping; candidate sets are key views, met with C-level ``&``."""

    counts_comparisons = False

    @staticmethod
    def view(trie):
        """The C-level way from a held mapping to its candidate set:
        ``dict.keys`` for hashed nodes, else the adapters' own
        ``keys()``."""
        return dict.keys if type(trie.root.children) is dict \
            else methodcaller("keys")

    @staticmethod
    def pool(roots):
        """The candidate set of undescended tries, met once."""
        return reduce(and_, map(_candidates, roots))

    @staticmethod
    def meet(streams):
        """Per entry, the codes common to its candidate sets."""
        return list(reduce(lambda met, view: map(and_, met, view), streams))

    @staticmethod
    def descend(held, codes):
        """Per entry, what it holds of a trie one level below."""
        return map(_children, map(getitem, held, codes))

    @staticmethod
    def enter(root, codes):
        """Per entry, what it holds of a trie entered at *root*."""
        return map(_children, map(root.children.__getitem__, codes))


class _Sorted:
    """Sorted key buffers: an entry holds a descended trie's node;
    candidate sets are its ``keys`` — arrays, the ``memoryview`` spans
    of frozen CSR tries, lists under
    :func:`~repro.buffers.layout.list_backend`, a sliced root's
    restricted keys — met by :func:`~repro.buffers.kernels.intersect_pair`
    mapped over two buffer streams, or
    :func:`~repro.buffers.kernels.intersect_many` for three or more."""

    counts_comparisons = True

    @staticmethod
    def view(trie):
        """From a held node to its sorted key buffer."""
        return _keys

    @staticmethod
    def pool(roots):
        """The roots' common keys (a lone root's own buffer, uncopied:
        a sliced root's are its restricted ``keys``)."""
        return roots[0].keys if len(roots) == 1 \
            else intersect_many([root.keys for root in roots])[0]

    @staticmethod
    def meet(streams):
        """Per entry, the codes common to its key buffers."""
        if len(streams) == 1:
            return list(streams[0])
        if len(streams) == 2:
            return list(map(intersect_pair, *streams))
        return [intersect_many(buffers)[0] for buffers in zip(*streams)]

    @staticmethod
    def descend(held, codes):
        """Per entry, the node one level below."""
        return map(getitem, map(_children, held), codes)

    @staticmethod
    def enter(root, codes):
        """Per entry, the node below *root*."""
        return map(root.children.__getitem__, codes)


class _Masked:
    """The last level of a hashed run whose participants all carry
    masks (:func:`_masked`): an entry holds a last-level node's
    ``bits``, read as it is descended into; candidate sets are those
    ints, met by :meth:`_Hashed.meet` (C-level ``&`` takes ints as it
    takes key views)."""

    @staticmethod
    def pool(roots):
        """The masks of undescended tries, met once."""
        return reduce(and_, map(_bits, roots))

    @staticmethod
    def descend(held, codes):
        """Per entry, the mask of the trie's last-level node below."""
        return map(_bits, map(getitem, held, codes))

    @staticmethod
    def enter(root, codes):
        """Per entry, the mask of the last-level node below *root*."""
        return map(_bits, map(root.children.__getitem__, codes))

    @staticmethod
    def decode(masks, counts):
        """The codes of the masks' set bits, entry by entry, ascending;
        an empty mask is skipped and a one-bit mask's code is its
        ``bit_length() - 1``."""
        codes = []
        for mask, count in zip(compress(masks, counts), filter(None, counts)):
            if count == 1:
                codes.append(mask.bit_length() - 1)
                continue
            while mask:
                low = mask & -mask
                codes.append(low.bit_length() - 1)
                mask ^= low
        return codes


def _build_masks(trie) -> bool:
    """Give every last-level node of *trie* its ``bits`` unless they
    would spend more than :data:`_MASK_BITS` per stored row; returns
    whether it did. The walk follows ``children``, so a slice (which
    shares them) masks its whole parent."""
    nodes = [trie.root]
    for _ in range(trie.depth - 1):
        nodes = list(chain.from_iterable(
            map(dict.values, map(_children, nodes))))
    rows = sum(map(len, nodes))
    if sum(node.keys[-1] + 1 for node in nodes) > _MASK_BITS * rows:
        return False
    # Every code's bit made once and shared by the sums, where that
    # table (top^2 / 2 bits) fits the budget the masks themselves have.
    top = max(node.keys[-1] for node in nodes) + 1
    bit = [1 << code for code in range(top)].__getitem__ \
        if top * top <= 2 * _MASK_BITS * rows else _bit
    for node in nodes:
        node.bits = _Mask(sum(map(bit, node.children)))
        node.bits.size = len(node.children)
    return True


def _masked(trie) -> bool:
    """Whether *trie*'s last-level nodes carry ``bits``, built by
    :func:`_build_masks` the first time a run asks. A trie is immutable
    once built, so the answer is recorded on it, in ``trie._masks`` (a
    slice shares its parent's record, a re-keyed copy starts its own);
    the frozen CSR adapters have no record and are never masked."""
    record = getattr(trie, "_masks", None)
    if record is None or type(trie.root.children) is not dict:
        return False
    if record[0] is None:
        record[0] = _build_masks(trie)
    return record[0]


def _spreader(counts, total):
    """The function repeating each value of an entry-parallel list by
    the entry's count (*total* is their sum): dead entries are dropped
    first, in one pass, and single-child chains pass through as is."""
    positive = list(filter(None, counts))
    if len(positive) == len(counts) == total:  # every count is 1
        return lambda values: values
    return lambda values: list(chain.from_iterable(
        map(repeat, compress(values, counts), positive)))


def _frontier_join(instance: EncodedInstance, stats: JoinStats,
                   label: str, filters=None,
                   step=_Hashed) -> "tuple[list[list[int]], list[tuple]]":
    """Expand *instance* level at a time (see the module docstring),
    meeting each level's candidate sets by *step*; returns the result
    as (one code column per level of the order, the chunks whose last
    level is left unexpanded: (their prefix code columns, per entry
    the last level's candidate set, its size)).

    ``filters.checks[level]`` are the twig structure checks XJoin runs
    on the frontier a level produces, after it is counted as the level's
    stage: once per distinct code projection, then one mask over the
    columns and node lists. A last level that is ``filters.tested`` is
    not expanded: an entry survives when its candidate sets share a
    code (its column comes back as zeros; the decoder knows). Set-up is
    O(inputs x depth) — nothing here may touch a whole root, the plan
    racer extrapolates from 1-code slices — but once per trie: the first
    hashed run to meet a trie at an order's last level builds its
    last-level masks (:func:`_masked`), which every later run reads.
    Tries are immutable once built, so a mask cannot go stale.
    """
    order, tries = instance.order, instance.tries
    depth = len(order)
    if not depth:
        return [], []
    checks = filters.checks if filters else None
    tested = depth - 1 if filters and filters.tested == order[-1] else -1
    # Below its last level a trie has nothing to read: not descended.
    last = [order.index(trie.order[-1]) if trie.order else -1
            for trie in tries]
    views = list(map(step.view, tries))
    # The mask path: at an expanded last level that two or more masked
    # tries meet, the entries hold those tries' ``bits``, read where each
    # trie descends into its last level (``lands``). Never at level 0:
    # a slice's root there is a new node, its keys cut over the parent's
    # children, with no mask of its own.
    masked, lands = -1, [-1] * len(tries)
    finals = instance.participation[-1]
    if step is _Hashed and 0 < depth - 1 != tested and len(finals) > 1 \
            and all(_masked(tries[i]) for i in finals):
        masked = depth - 1
        for i in finals:
            if tries[i].depth > 1:
                lands[i] = order.index(tries[i].order[-2])
    # The last level a plain meet expands, with no check on its rows,
    # is handed back unexpanded where its fan-out reaches the crossover.
    unexpanded = depth - 1 if masked != depth - 1 != tested \
        and not (checks and checks[-1]) else -1
    # Measured to three prefix columns; a wider prefix keeps that one.
    fan_out = _FAN_OUT / min(max(depth - 1, 1), 3) ** 1.5
    counting = stats.counting
    alive, times = [0] * depth, [0.0] * depth
    seeks = filtered = 0
    columns: "list[list[int]]" = [[] for _ in order]
    factored: "list[tuple]" = []

    stats.start_timer()
    # One pending chunk: (a code column per bound level, and per
    # descended unfinished trie what the entries hold of it).
    pending = [([], {})]
    while pending:
        cols, nodes = pending.pop()
        level, size = len(cols), (len(cols[0]) if cols else 1)
        if counting:
            start = perf_counter()
        participants = instance.participation[level]
        held = [i for i in participants if i in nodes]
        fresh = [i for i in participants if i not in nodes]
        if level == masked:  # the entries hold ints: no view to take
            streams = [nodes[i] for i in held]
        else:
            streams = [map(views[i], nodes[i]) for i in held]
        if fresh:  # one root each, shared by every entry: met once, last
            shared = (_Masked if level == masked else step).pool(
                [tries[i].root for i in fresh])
            streams.append(repeat(shared, size))
        if level == masked:
            commons = step.meet(streams)
            counts = list(map(int.bit_count, commons))
            codes = _Masked.decode(commons, counts)
        elif level == tested:
            # A witness test: every view but the last is met as usual,
            # the last only probed until the first common code. The
            # counts are the verdicts, 0 or 1 per entry.
            *rest, final = streams
            counts = list(map(bool, final)) if not rest else [
                not common.isdisjoint(view)
                for common, view in zip(step.meet(rest), final)]
            codes = [0] * counts.count(True)
        else:
            commons = step.meet(streams)
            counts = list(map(len, commons))
            codes = None if level == unexpanded and sum(counts) >= \
                fan_out * (len(counts) - counts.count(0)) \
                else list(chain.from_iterable(commons))
        if counting:
            size_of = _size if level == masked else len
            sizes = [map(size_of, nodes[i]) for i in held]
            if fresh:
                sizes.append(repeat(shared.bit_count() if level == masked
                                    else len(shared), size))
            seeks += sum(map(min, *sizes)) if len(sizes) > 1 \
                else sum(sizes[0])
        if codes is None:  # rows are made per entry, when decoded
            alive[level] += sum(counts)
            factored.append((cols, commons, counts))
            if counting:
                times[level] += perf_counter() - start
            continue
        alive[level] += len(codes)
        spread = _spreader(counts, len(codes))
        cols = [spread(col) for col in cols] + [codes]
        after = {}
        for i, node_list in nodes.items():
            if i not in participants:
                after[i] = spread(node_list)
            elif last[i] > level:
                after[i] = list((_Masked if lands[i] == level else step)
                                .descend(spread(node_list), codes))
        for i in fresh:
            if last[i] > level:
                after[i] = list((_Masked if lands[i] == level else step)
                                .enter(tries[i].root, codes))
        for positions, validator in checks[level] if checks else ():
            projection = list(zip(*[cols[p] for p in positions]))
            verdicts = {key: validator.admits(key)
                        for key in set(projection)}
            keep = list(map(verdicts.__getitem__, projection))
            rejected = keep.count(False)
            if rejected:
                filtered += rejected
                cols = [list(compress(col, keep)) for col in cols]
                after = {i: list(compress(node_list, keep))
                         for i, node_list in after.items()}
        if level + 1 == depth:
            for column, col in zip(columns, cols):
                column += col
        else:
            pending.extend(
                ([col[lo:lo + _CHUNK] for col in cols],
                 {i: node_list[lo:lo + _CHUNK]
                  for i, node_list in after.items()})
                for lo in range(0, len(cols[level]), _CHUNK))
        if counting:
            times[level] += perf_counter() - start
    stats.stop_timer()

    stats.count_seeks(seeks)
    if step.counts_comparisons:
        stats.count_comparisons(seeks)
    stats.count_filtered(filtered)
    stats.count_emitted(len(columns[0]) + sum(
        sum(counts) for _cols, _commons, counts in factored))
    for attribute, count, seconds in zip(order, alive, times):
        stats.record_stage(f"{label} {attribute}", count)
        if counting:
            stats.record_phase(f"{label} {attribute}", seconds)
    return columns, factored


class GenericJoinAlgorithm:
    """Attribute-at-a-time expansion over the hashed tries."""

    name = "generic_join"

    def run(self, instance: EncodedInstance, *,
            stats: JoinStats | None = None) -> Relation:
        """Evaluate the instance level at a time (:func:`_frontier_join`)."""
        _reject_twig_instance(self.name, instance)
        stats = ensure_stats(stats)
        if instance.has_empty_input():
            return _empty_result(stats, instance.name, instance.order)
        return instance.result_relation(
            _frontier_join(instance, stats, "level"))


class LeapfrogTriejoinAlgorithm:
    """Veldhuizen's LFTJ: sorted key buffers intersected per level."""

    name = "leapfrog"

    def run(self, instance: EncodedInstance, *,
            stats: JoinStats | None = None) -> Relation:
        """Evaluate the instance level at a time (:func:`_frontier_join`),
        meeting each level's sorted key buffers."""
        _reject_twig_instance(self.name, instance)
        stats = ensure_stats(stats)
        if instance.has_empty_input():
            return _empty_result(stats, instance.name, instance.order)
        return instance.result_relation(
            _frontier_join(instance, stats, "level", step=_Sorted))


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
        if instance.twig_filters is None:
            raise EngineError(
                "xjoin needs an instance built with EncodedInstance."
                "from_query (it carries the twig-side filters); a "
                "trie-less reference instance is the baseline's only")
        if instance.has_empty_input():
            return _empty_result(stats, instance.name, instance.attributes)
        return instance.result_relation(
            _frontier_join(instance, stats, "expand", instance.twig_filters),
            instance.attributes)


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

        return baseline_join(MultiModelQuery(
            instance.relations, instance.twigs, name=instance.name),
            stats=stats)


GENERIC_JOIN = register(GenericJoinAlgorithm())
LEAPFROG = register(LeapfrogTriejoinAlgorithm())
XJOIN = register(XJoinAlgorithm())
BASELINE = register(BaselineJoinAlgorithm())
