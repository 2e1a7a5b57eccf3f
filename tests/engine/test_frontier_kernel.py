"""The level-at-a-time kernel behind ``generic_join``, ``leapfrog`` and
``xjoin``.

``repro.engine.algorithms._frontier_join`` expands a whole frontier per
level in C-level passes; ``leapfrog`` differs from ``generic_join`` only
in how a level's candidate sets are met (sorted key buffers instead of
hashed key views). Its oracle is the depth-first, per-binding form of
Algorithm 1 it replaced, kept here as :func:`reference_dfs`: rows must
equal the naive join, and every stage size, ``emitted`` and
``filtered`` the reference's — unchunked, chunked, sliced and on frozen
adapters. A hashed run meets a last level of masked tries with bit
masks; its oracle is the same run with the mask gate at 0. A last level
left unexpanded has its rows made entry by entry when decoded; its
oracle is the same run with the fan-out crossover out of reach.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.frozen import FrozenTrie, freeze_trie
from repro.buffers.kernels import intersect_many
from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.core.surrogate import NodeSurrogate, erase_surrogates
from repro.data.dblp import dblp_document, dblp_query
from repro.data.random_instances import random_multimodel_instance
from repro.data.scenarios import figure1_query
from repro.data.synthetic import example34_instance
from repro.engine import EncodedInstance, EncodedTrie, algorithms, \
    get_algorithm, plan_query, run_query
from repro.engine.dictionary import Dictionary
from repro.engine.encoded import relation_input
from repro.errors import EngineError
from repro.instrumentation import JoinStats
from repro.parallel.shm import attach_instance, publish_instance
from repro.parallel.slicing import sliced_instance
from repro.relational.relation import Relation
from repro.updates.relations import VersionedRelation
from repro.xml.model import XMLDocument, element
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_document

ALGORITHMS = ("generic_join", "leapfrog", "xjoin", "baseline")
#: The three algorithms that run the frontier kernel.
KERNELS = ("generic_join", "leapfrog", "xjoin")


def reference_dfs(instance):
    """Algorithm 1 depth first, one Python frame per binding: (code rows,
    per-level stage sizes, filtered). The seed is the participant with
    the fewest keys; a level's stage counts a binding before the level's
    structure checks run, and a rejected binding is not expanded."""
    depth = len(instance.order)
    filters = instance.twig_filters
    checks = filters.checks if filters else [[] for _ in instance.order]
    nodes = [trie.root for trie in instance.tries]
    alive, rows, filtered = [0] * depth, [], 0

    def search(level, binding):
        nonlocal filtered
        if level == depth:
            rows.append(binding)
            return
        participants = instance.participation[level]
        entry = [nodes[i] for i in participants]
        for code in min(entry, key=len).keys:
            children = [node.children.get(code) for node in entry]
            if None in children:
                continue
            alive[level] += 1
            row = binding + (code,)
            if not all(validator.admits(tuple(row[p] for p in positions))
                       for positions, validator in checks[level]):
                filtered += 1
                continue
            for i, child in zip(participants, children):
                nodes[i] = child
            search(level + 1, row)
            for i, node in zip(participants, entry):
                nodes[i] = node

    if not instance.has_empty_input():
        search(0, ())
    return rows, alive, filtered


def kernel_run(instance, algorithm):
    """(rows, stage sizes, emitted, filtered, seeks) of one kernel run."""
    stats = JoinStats()
    result = get_algorithm(algorithm).run(instance, stats=stats)
    return (result, stats.stage_sizes(), stats.emitted, stats.filtered,
            stats.seeks)


def traced(instance, algorithm):
    """(result, stats) of one kernel run."""
    stats = JoinStats()
    return get_algorithm(algorithm).run(instance, stats=stats), stats


def assert_leapfrog_is_the_same_frontier(instance):
    """``leapfrog`` returns ``generic_join``'s rows through the same
    frontier: stage labels and sizes level by level, ``emitted`` and
    ``seeks`` equal, and its ``comparisons`` are those seeks."""
    rows, hashed = traced(instance, "generic_join")
    lftj_rows, lftj = traced(instance, "leapfrog")
    assert lftj_rows == rows
    assert lftj.stages == hashed.stages
    assert (lftj.emitted, lftj.seeks) == (hashed.emitted, hashed.seeks)
    assert lftj.comparisons == lftj.seeks and not hashed.comparisons


def assert_matches_reference(instance, algorithm):
    """The kernel's rows and counters are the reference's; returns them."""
    result, stages, emitted, filtered, _seeks = run = \
        kernel_run(instance, algorithm)
    code_rows, alive, rejected = reference_dfs(instance)
    attributes = instance.attributes if algorithm == "xjoin" \
        else instance.order
    expected = set()
    for codes in code_rows:
        row = erase_surrogates(instance.decode_row(codes)) \
            if instance.erase_structural else instance.decode_row(codes)
        expected.add(tuple(row[instance.order.index(a)] for a in attributes))
    assert set(result.rows) == expected
    assert result.schema.attributes == tuple(attributes)
    if instance.has_empty_input():
        assert stages == [0] and not result.rows
    else:
        assert stages == alive
        assert (emitted, filtered) == (len(code_rows), rejected)
    return run


# -- strategies ------------------------------------------------------------

@st.composite
def relational_queries(draw):
    """1-4 relations over subsets of four attributes with tiny domains:
    cyclic, acyclic, single-input and (disjoint schemas) cartesian
    shapes all occur; plus a random global order."""
    relations = []
    for index in range(draw(st.integers(1, 4))):
        schema = draw(st.permutations("abcd"))[:draw(st.integers(1, 3))]
        rows = draw(st.sets(st.tuples(*[st.integers(0, 3)] * len(schema)),
                            max_size=12))
        relations.append(Relation(f"R{index}", tuple(schema), rows))
    query = MultiModelQuery(relations, name="rel")
    return query, tuple(draw(st.permutations(query.attributes)))


@st.composite
def multimodel_queries(draw):
    """A random relations-plus-twig query (``value_range=1`` makes most
    twig nodes share a value) and a random global order."""
    query = random_multimodel_instance(
        draw(st.integers(0, 10 ** 6)), value_range=draw(st.integers(1, 3)))
    return query, tuple(draw(st.permutations(query.attributes)))


def duplicate_branch_query():
    """``a(/b, /c)`` whose ``a`` nodes all carry value 7, each with only
    a ``b`` or only a ``c`` child, plus one real match: the value-bound
    branching node of ``tests/core/test_structure_pushdown.py``."""
    root = element("r")
    for i in range(3):
        root.append(element("a", element("b", text=str(i)), text="7"))
        root.append(element("a", element("c", text=str(i)), text="7"))
    root.append(element("a", element("b", text="9"), element("c", text="9"),
                        text="7"))
    relation = Relation("R", ("x", "b"),
                        [(x, b) for x in range(3) for b in (0, 1, 2, 9)])
    return MultiModelQuery([relation], [TwigBinding(
        parse_twig("a(/b, /c)", name="T"), XMLDocument(root))])


def triangle(n, per_node, seed=1):
    """The ``rel_triangle`` workload's shape: a uniform random digraph."""
    rng = random.Random(seed)

    def edges():
        return {(rng.randrange(n), rng.randrange(n))
                for _ in range(n * per_node)}

    return MultiModelQuery([Relation("R", ("a", "b"), edges()),
                            Relation("S", ("b", "c"), edges()),
                            Relation("T", ("a", "c"), edges())], name="tri")


def clique4(n, per_node, seed=2):
    """Four-cliques over one random digraph: every pair of ``a, b, c, d``
    is an edge relation, so under that order levels ``c`` and ``d``
    each meet three tries."""
    rng = random.Random(seed)
    edges = {(rng.randrange(n), rng.randrange(n))
             for _ in range(n * per_node)}
    return MultiModelQuery(
        [Relation(f"E{x}{y}", (x, y), edges)
         for x, y in ("ab", "ac", "ad", "bc", "bd", "cd")], name="k4")


# -- (a) differential, (b) Lemma 3.5 ---------------------------------------

class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(relational_queries())
    def test_relational_queries(self, case):
        query, order = case
        naive = query.naive_join()
        instance = EncodedInstance.from_query(query, order)
        for algorithm in KERNELS:
            result, stages, *_ = assert_matches_reference(instance, algorithm)
            assert result.project(query.attributes) == naive
            # Lemma 3.5: no stage outgrows the instance's size bound.
            assert max(stages) <= query.size_bound().bound_ceiling
        assert_leapfrog_is_the_same_frontier(instance)

    @settings(max_examples=80, deadline=None)
    @given(multimodel_queries())
    def test_multimodel_queries(self, case):
        query, order = case
        instance = EncodedInstance.from_query(query, order)
        result, stages, *_ = assert_matches_reference(instance, "xjoin")
        assert result == query.naive_join()
        assert max(stages) <= query.size_bound().bound_ceiling

    def test_value_bound_branching_node(self):
        query = duplicate_branch_query()
        for order in (("x", "a", "b", "c"), ("a", "b", "c", "x")):
            instance = EncodedInstance.from_query(query, order)
            result, _stages, emitted, filtered, _ = \
                assert_matches_reference(instance, "xjoin")
            assert result == query.naive_join()
            assert filtered > emitted > 0  # the check rejects repeats too


# -- the zero-arity inputs TRUE and FALSE ----------------------------------

class TestZeroArityInputs:
    R = Relation("R", ("a",), [(value,) for value in range(64)])
    FALSE = Relation("E", (), [])
    TRUE = Relation("U", (), [()])

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_false_empties_the_join_and_true_is_neutral(self, algorithm,
                                                        workers):
        def rows(*relations):
            return set(run_query(MultiModelQuery(relations),
                                 algorithm=algorithm, workers=workers).rows)

        assert rows(self.R, self.FALSE) == set()
        assert rows(self.FALSE) == set()
        assert rows(self.R, self.TRUE) == set(self.R.rows)
        assert rows(self.TRUE) == {()}

    def test_has_empty_input_sees_false(self):
        assert EncodedInstance.from_relations(
            [self.R, self.FALSE]).has_empty_input()
        assert not EncodedInstance.from_relations(
            [self.R, self.TRUE]).has_empty_input()


# -- per-level times and the candidates-examined counter -------------------

@pytest.mark.parametrize("workers", [0, 2])
def test_levels_are_timed_under_their_stage_labels(workers):
    query = triangle(200, 4)
    stats = JoinStats()
    run_query(query, algorithm="generic_join", order=("a", "b", "c"),
              stats=stats, workers=workers)
    levels = {label: seconds for label, seconds in stats.phase_times.items()
              if label != "encode"}
    assert sorted(levels) == ["level a", "level b", "level c"]
    assert all(seconds > 0 for seconds in levels.values())
    assert sum(levels.values()) <= stats.wall_time * max(workers, 1)


def test_seeks_count_the_candidates_examined():
    """Per level and frontier entry: the smallest participant's set."""
    r = Relation("R", ("a", "b"), [(0, 0), (0, 1), (0, 2), (1, 0)])
    s = Relation("S", ("b",), [(0,), (1,), (5,), (6,), (7,)])
    instance = EncodedInstance.from_relations([r, s], ("a", "b"))
    *_, seeks = kernel_run(instance, "generic_join")
    # level a: R's 2 roots; level b: min(3, 5) under a=0, min(1, 5) under 1.
    assert seeks == 2 + 3 + 1


# -- (c) chunk boundaries --------------------------------------------------

@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunked_runs_equal_the_unchunked_run(monkeypatch, chunk):
    cases = [(EncodedInstance.from_query(query, query.attributes), algorithm)
             for query, algorithm in (
                 (triangle(40, 4), "generic_join"),
                 (triangle(40, 4), "leapfrog"),
                 (clique4(12, 5), "leapfrog"),
                 (figure1_query(), "xjoin"),
                 (duplicate_branch_query(), "xjoin"),
                 (random_multimodel_instance(11, value_range=1), "xjoin"))]
    whole = [kernel_run(instance, algorithm) for instance, algorithm in cases]
    assert any(max(stages) > 7 for _result, stages, *_ in whole)
    monkeypatch.setattr(algorithms, "_CHUNK", chunk)
    assert [kernel_run(instance, algorithm)
            for instance, algorithm in cases] == whole
    for instance, algorithm in cases:
        if algorithm == "leapfrog":
            assert_leapfrog_is_the_same_frontier(instance)


# -- (d) sliced roots ------------------------------------------------------

@pytest.mark.parametrize("detach", [False, True])
@pytest.mark.parametrize("algorithm", KERNELS)
def test_slices_partition_the_result(algorithm, detach):
    query = triangle(60, 4)
    instance = EncodedInstance.from_query(query, ("a", "b", "c"))
    whole, stages, emitted, *_ = kernel_run(instance, algorithm)
    domain = len(instance.dictionaries["a"])
    cuts = [0, 1, 2, 17, 18, domain // 2, domain]
    union, total = set(), 0
    for lo, hi in zip(cuts, cuts[1:]):
        view = sliced_instance(instance, lo, hi, detach=detach)
        # Undetached, the slice shares the parent's children: only
        # ``keys`` is cut. Detached, the children are cut too.
        shared = view.tries[0].root.children is \
            instance.tries[0].root.children
        assert shared is not detach
        part, part_stages, part_emitted, *_ = kernel_run(view, algorithm)
        if algorithm == "leapfrog":
            assert_leapfrog_is_the_same_frontier(view)
        codes = {instance.dictionaries["a"].encode(row[0]) for row in part}
        assert all(lo <= code < hi for code in codes)
        assert part_stages[0] <= hi - lo
        assert not union & part.rows
        union |= part.rows
        total += part_emitted
    assert union == whole.rows and total == emitted


# -- (e) frozen adapters ---------------------------------------------------

def test_frozen_children_view_agrees_with_the_span():
    instance = EncodedInstance.from_relations(triangle(30, 3).relations)
    for trie in instance.tries:
        frozen = FrozenTrie.from_layout(freeze_trie(trie)).root()
        pairs = [(frozen, trie.root)]
        while pairs:
            adapter, node = pairs.pop()
            view = adapter.children.keys()
            assert view == set(adapter.keys) == set(node.keys)
            assert len(adapter.children) == len(node.keys)
            assert view & {node.keys[0], -1} == {node.keys[0]}
            pairs += [(adapter.children[code], node.children[code])
                      for code in node.keys if node.children[code].keys]
        leaf = frozen.children[frozen.keys[0]].children[
            frozen.children[frozen.keys[0]].keys[0]]
        assert leaf.children.keys() == set() and len(leaf.children) == 0


@pytest.mark.parametrize("algorithm", KERNELS)
def test_kernel_runs_on_attached_frozen_tries(algorithm):
    query = triangle(50, 4)
    instance = EncodedInstance.from_query(query, query.attributes)
    serial = kernel_run(instance, algorithm)
    arena = publish_instance(instance, algorithm)
    try:
        attached_arena, attached = attach_instance(arena.name)
        assert kernel_run(attached, algorithm) == serial
        lo, hi = 3, 11  # a sliced root over the adapters' shared children
        part = get_algorithm(algorithm).run(sliced_instance(attached, lo, hi))
        assert part == get_algorithm(algorithm).run(
            sliced_instance(instance, lo, hi))
        del attached  # its tries hold views into the attachment
        attached_arena.close()
    finally:
        arena.close()
        arena.unlink()


# -- (f) surrogate erasure through the decode tables -----------------------

def test_decode_table_erasure_equals_row_wise_erasure():
    query = figure1_query()  # orderLine is valueless: bound by surrogate
    instance = EncodedInstance.from_query(query, query.attributes)
    assert instance.erase_structural
    surrogates = [level for level, values in enumerate(instance._level_values)
                  if any(isinstance(v, NodeSurrogate) for v in values)]
    assert surrogates
    code_rows, _alive, _filtered = reference_dfs(instance)
    result = instance.result_relation((list(zip(*code_rows)), []),
                                      query.attributes, query.name)
    assert set(result.rows) == {
        erase_surrogates(instance.decode_row(codes)) for codes in code_rows}
    # Two distinct surrogates under equal values collapse to one row.
    level = surrogates[0]
    first, second = [code for code, value
                     in enumerate(instance._level_values[level])
                     if isinstance(value, NodeSurrogate)][:2]
    twins = [list(code_rows[0]), list(code_rows[0])]
    twins[0][level], twins[1][level] = first, second
    collapsed = instance.result_relation((list(zip(*twins)), []))
    assert len(collapsed) == 1
    assert next(iter(collapsed))[level] is None
    # The erased table is built once per dictionary and kept on it.
    dictionary = instance.dictionaries[instance.order[level]]
    assert dictionary._erased is not None
    kept = dictionary._erased
    instance.result_relation((list(zip(*code_rows)), []))
    assert dictionary._erased is kept


def reference_decode(instance, columns, attributes):
    """The result's rows decoded one row at a time."""
    tested = instance.twig_filters.tested if instance.twig_filters else None
    rows = set()
    for codes in zip(*columns):
        row = instance.decode_row(codes)
        if instance.erase_structural:
            row = erase_surrogates(row)
        values = dict(zip(instance.order, row))
        rows.add(tuple(None if attribute == tested else values[attribute]
                       for attribute in attributes))
    return rows


@pytest.mark.parametrize("case", ["tested", "erased", "relational"])
@pytest.mark.parametrize("rows", [0, 1, None])
@pytest.mark.parametrize("permuted", [False, True])
def test_column_decode_equals_the_row_decode(monkeypatch, case, rows,
                                             permuted):
    """Each column is one ``gather`` through its decode table: a tested
    column, erased surrogates, 0 / 1 / all rows (``gather``'s short
    branch and its ``itemgetter``) and a permuted projection."""
    monkeypatch.setattr(algorithms, "_FAN_OUT", float("inf"))
    if case == "tested":
        query = dblp_query(dblp_document(200, seed=3))
        order = plan_query(query).order
    elif case == "erased":
        query = figure1_query()
        order = query.attributes
    else:
        query = triangle(40, 3)
        order = ("a", "b", "c")
    instance = EncodedInstance.from_query(query, order)
    assert (instance.twig_filters.tested is not None) == (case == "tested")
    assert instance.erase_structural == (case != "relational")
    columns, factored = algorithms._frontier_join(
        instance, JoinStats(), "expand", instance.twig_filters)
    assert len(columns[0]) > 1 and not factored
    columns = [column[:rows] for column in columns]
    attributes = tuple(reversed(order)) if permuted else order
    result = instance.result_relation((columns, []), attributes)
    assert result.schema.attributes == attributes
    assert set(result.rows) == reference_decode(instance, columns,
                                                attributes)


# -- (g) per-call set-up ---------------------------------------------------

@pytest.mark.parametrize("algorithm", KERNELS)
def test_a_one_code_slice_allocates_nothing_sized_by_a_root(algorithm):
    """The plan racer times 1-, 2-, 4-code slices and extrapolates: a
    per-call pass over an unsliced root (8 192 codes here; a list of
    them is 64 KB, a set 256 KB) would swamp what it measures."""
    query = triangle(8192, 2)
    instance = EncodedInstance.from_query(query, ("a", "b", "c"))
    assert min(len(trie.root.keys) for trie in instance.tries) > 6000
    kernel = get_algorithm(algorithm)
    view = sliced_instance(instance, 100, 101)
    kernel.run(view)  # warm lazy imports
    tracemalloc.start()
    try:
        kernel.run(view)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024, peak


# -- (h) the sorted step: leapfrog ------------------------------------------

def test_a_trie_is_held_across_a_level_it_does_not_bind():
    """T(a, c) is descended at ``a`` and carried, unread, through ``b``."""
    instance = EncodedInstance.from_query(triangle(40, 4), ("a", "b", "c"))
    held = instance.tries.index(
        next(t for t in instance.tries if t.order == ("a", "c")))
    assert held in instance.participation[0]
    assert held not in instance.participation[1]
    assert held in instance.participation[2]
    assert_matches_reference(instance, "leapfrog")
    assert_leapfrog_is_the_same_frontier(instance)


def test_a_four_clique_meets_three_buffers_per_entry(monkeypatch):
    query = clique4(12, 5)
    instance = EncodedInstance.from_query(query, ("a", "b", "c", "d"))
    assert len(instance.participation[3]) == 3
    calls = []
    monkeypatch.setattr(algorithms, "intersect_many",
                        lambda buffers: calls.append(len(buffers))
                        or intersect_many(buffers))
    result, *_ = assert_matches_reference(instance, "leapfrog")
    assert result.rows and result == query.naive_join()
    assert calls.count(3) > 1  # per frontier entry, inside the kernel
    assert_leapfrog_is_the_same_frontier(instance)


def test_empty_inputs_and_slices_expand_nothing():
    r = Relation("R", ("a", "b"), [(0, 1), (1, 2)])
    empty = Relation("E", ("b",), [])
    stats = JoinStats()
    result = get_algorithm("leapfrog").run(
        EncodedInstance.from_relations([r, empty]), stats=stats)
    assert not result.rows and stats.stage_sizes() == [0]
    # A slice holding no code is an empty input too ...
    view = sliced_instance(EncodedInstance.from_relations([r]), 5, 9)
    assert kernel_run(view, "leapfrog")[1] == [0]
    # ... while roots with nothing in common meet to an empty level.
    t = Relation("T", ("a", "c"), [(2, 0), (3, 1)])
    instance = EncodedInstance.from_relations([r, t], ("a", "b", "c"))
    result, stages, emitted, *_ = kernel_run(instance, "leapfrog")
    assert not result.rows and stages == [0, 0, 0] and emitted == 0
    assert_leapfrog_is_the_same_frontier(instance)


def test_leapfrog_rejects_twig_instances():
    query = figure1_query()
    instance = EncodedInstance.from_query(query, query.attributes)
    with pytest.raises(EngineError, match="twig"):
        get_algorithm("leapfrog").run(instance)


# -- (i) rebuilt tries -----------------------------------------------------

def test_rebuilt_tries_are_read_afresh_every_run():
    """An update rebuilds a changed input's trie from its rows; here the
    tries of one instance are swapped for rebuilt ones between runs.
    Over the domain 0..13 a value is its own code, so rows go in
    unencoded."""
    rng = random.Random(3)
    relations = triangle(12, 3).relations
    current = {relation.name: set(relation.rows) for relation in relations}
    order = ("a", "b", "c")
    slots = {relation.name: index for index, relation in enumerate(relations)}
    instance = EncodedInstance(
        "tri", order, {a: Dictionary(a, range(14)) for a in order},
        [EncodedTrie(relation.name, relation.schema.attributes, relation.rows)
         for relation in relations])

    def rebuild(name, added, removed):
        current[name] = (current[name] - removed) | added
        trie = EncodedTrie(name, instance.tries[slots[name]].order,
                           current[name])
        assert trie.size == len(current[name])
        instance.tries[slots[name]] = trie

    for _ in range(25):
        name = rng.choice(sorted(current))
        added = {(rng.randrange(14), rng.randrange(14)) for _ in range(3)}
        removed = set(rng.sample(sorted(current[name]),
                                 min(3, len(current[name]))))
        rebuild(name, added, removed - added)
        expected = MultiModelQuery(
            [Relation(relation.name, relation.schema, current[relation.name])
             for relation in relations]).naive_join()
        result, *_ = assert_matches_reference(instance, "generic_join")
        assert result.project(expected.schema.attributes) == expected
    # ... and a round trip back to the first state gives the first rows.
    for relation in relations:
        rebuild(relation.name, set(relation.rows),
                current[relation.name] - relation.rows)
    assert get_algorithm("generic_join").run(instance) == \
        get_algorithm("generic_join").run(
            EncodedInstance.from_relations(relations, order))


# -- (j) last-level bit masks ----------------------------------------------

def cycle4(n, per_node, seed=4):
    """R(a,b) S(b,c) T(c,d) U(d,a): level ``d`` meets T and U."""
    rng = random.Random(seed)

    def edges():
        return {(rng.randrange(n), rng.randrange(n))
                for _ in range(n * per_node)}

    return MultiModelQuery([Relation("R", ("a", "b"), edges()),
                            Relation("S", ("b", "c"), edges()),
                            Relation("T", ("c", "d"), edges()),
                            Relation("U", ("d", "a"), edges())], name="c4")


def with_unary_tail(query, seed=5):
    """*query* plus a unary relation on its last attribute ``c``: an
    undescended participant, met through its root's mask."""
    rng = random.Random(seed)
    return MultiModelQuery([*query.relations, Relation(
        "V", ("c",), {(rng.randrange(60),) for _ in range(40)})])


def fresh(query):
    """*query* over new relation objects, so none of its relations' tries
    is encoded or masked yet (twig inputs stay cached on the document)."""
    return MultiModelQuery(
        [Relation(r.name, r.schema, r.rows) for r in query.relations],
        [TwigBinding(t.twig, t.document) for t in query.twigs],
        name=query.name)


def masked_tries(instance):
    """The tries of *instance*'s last level that carry masks."""
    return [instance.tries[i] for i in instance.participation[-1]
            if instance.tries[i]._masks == [True]]


def assert_masks_change_nothing(monkeypatch, make, algorithm,
                                masks=True):
    """The run over ``make()`` (a fresh instance) equals the run with
    the gate at 0 (no trie masked) in rows and every counter; *masks*
    says whether the first run's last level was met by masks."""
    instance = make()
    run = kernel_run(instance, algorithm)
    assert (len(masked_tries(instance))
            == len(instance.participation[-1]) > 1) is masks
    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "_MASK_BITS", 0)
        fallback = make()
        assert kernel_run(fallback, algorithm) == run
        assert not masked_tries(fallback)
    return instance, run


class TestMaskParity:
    @pytest.mark.parametrize("algorithm", ["generic_join", "xjoin"])
    @pytest.mark.parametrize("shape", [triangle(60, 4), cycle4(30, 4),
                                       with_unary_tail(triangle(60, 4))])
    def test_masked_last_levels_match_the_fallback(self, monkeypatch,
                                                   shape, algorithm):
        instance, (result, *_counters) = assert_masks_change_nothing(
            monkeypatch,
            lambda: EncodedInstance.from_query(fresh(shape),
                                               shape.attributes),
            algorithm)
        assert result.rows and result.project(shape.attributes) \
            == shape.naive_join()
        assert_matches_reference(instance, algorithm)

    def test_a_unary_participant_is_met_by_its_root_mask(self):
        query = with_unary_tail(triangle(60, 4))
        instance = EncodedInstance.from_query(query, ("a", "b", "c"))
        kernel_run(instance, "generic_join")
        unary = next(t for t in instance.tries if t.order == ("c",))
        assert unary.root.bits == sum(1 << code for code in unary.root.keys)
        assert len(masked_tries(instance)) == 3

    def test_one_too_sparse_participant_falls_back(self, monkeypatch):
        """S's last-level nodes are dense in ``c``; T's 400 hold one
        code each near the top of the 2 000-code domain."""
        s_rows = {(b, c) for b in range(4) for c in range(2000)}
        t_rows = {(a, 1990 + a % 10) for a in range(400)}
        r_rows = {(a, a % 4) for a in range(400)}

        def make():
            return EncodedInstance.from_relations(
                [Relation("R", ("a", "b"), r_rows),
                 Relation("S", ("b", "c"), s_rows),
                 Relation("T", ("a", "c"), t_rows)], ("a", "b", "c"))

        decoded = []
        monkeypatch.setattr(algorithms._Masked, "decode", lambda *args:
                            decoded.append(args) or [])
        instance, (result, *_counters) = assert_masks_change_nothing(
            monkeypatch, make, "generic_join", masks=False)
        s, t = instance.tries[1], instance.tries[2]
        assert (s._masks, t._masks) == ([True], [False])
        assert not hasattr(t.root.children[0], "bits")
        assert len(result) == 400 and not decoded

    def test_re_keyed_tries_build_their_own_masks(self, monkeypatch):
        """T's ``c`` values extend S's, so the union re-keys S."""
        rng = random.Random(6)
        s_rows = {(rng.randrange(40), 2 * rng.randrange(40))
                  for _ in range(160)}
        t_rows = {(rng.randrange(40), rng.randrange(80))
                  for _ in range(160)}
        r_rows = {(rng.randrange(40), rng.randrange(40))
                  for _ in range(160)}
        relations = [Relation("R", ("a", "b"), r_rows),
                     Relation("S", ("b", "c"), s_rows),
                     Relation("T", ("a", "c"), t_rows)]

        def make():
            return EncodedInstance.from_relations(
                [Relation(r.name, r.schema, r.rows) for r in relations],
                ("a", "b", "c"))

        instance, _run = assert_masks_change_nothing(
            monkeypatch, make, "generic_join")
        cached = relation_input(instance.relations[1], ("a", "b", "c"))[0]
        clone = instance.tries[1]
        assert clone is not cached.trie and clone._masks == [True]
        assert cached.trie._masks == [None]  # never met at a last level

    @pytest.mark.parametrize("algorithm", ["generic_join", "xjoin"])
    def test_slices_and_two_workers_match_the_fallback(self, monkeypatch,
                                                       algorithm):
        query = triangle(60, 4)

        def make():
            return EncodedInstance.from_query(fresh(query), ("a", "b", "c"))

        for lo, hi in ((0, 30), (30, 60)):
            assert_masks_change_nothing(
                monkeypatch, lambda: sliced_instance(make(), lo, hi),
                algorithm)

        def parallel():
            stats = JoinStats()
            result = run_query(fresh(query), algorithm=algorithm,
                               order=("a", "b", "c"), stats=stats,
                               workers=2)
            return (result, stats.stage_sizes(), stats.seeks,
                    stats.emitted, stats.filtered)

        masked = parallel()
        monkeypatch.setattr(algorithms, "_MASK_BITS", 0)
        assert parallel() == masked

    def test_a_tested_last_level_is_not_masked(self, monkeypatch):
        query = dblp_query(dblp_document(300, seed=7))
        order = plan_query(query).order
        assert_masks_change_nothing(
            monkeypatch, lambda: EncodedInstance.from_query(fresh(query),
                                                            order),
            "xjoin", masks=False)
        instance = EncodedInstance.from_query(query, order)
        assert instance.twig_filters.tested == order[-1]
        assert len(instance.participation[-1]) > 1
        assert all(instance.tries[i]._masks == [None]
                   for i in instance.participation[-1])

    @pytest.mark.parametrize("algorithm", ["generic_join", "xjoin"])
    def test_frozen_adapters_carry_no_masks(self, monkeypatch, algorithm):
        query = triangle(50, 4)
        instance, run = assert_masks_change_nothing(
            monkeypatch,
            lambda: EncodedInstance.from_query(fresh(query),
                                               query.attributes),
            algorithm)
        arena = publish_instance(instance, algorithm)
        try:
            attached_arena, attached = attach_instance(arena.name)
            assert kernel_run(attached, algorithm) == run
            assert not any(algorithms._masked(t) for t in attached.tries)
            del attached  # its tries hold views into the attachment
            attached_arena.close()
        finally:
            arena.close()
            arena.unlink()


class TestMasksAreBuiltOnce:
    @pytest.fixture
    def builds(self, monkeypatch):
        """The tries :func:`algorithms._build_masks` is called on."""
        calls = []
        original = algorithms._build_masks
        monkeypatch.setattr(algorithms, "_build_masks", lambda trie:
                            calls.append(trie) or original(trie))
        return calls

    def test_a_second_run_builds_no_mask(self, builds):
        query = triangle(60, 4)
        for algorithm in ("generic_join", "xjoin", "generic_join"):
            run_query(query, algorithm=algorithm, order=("a", "b", "c"))
            assert len(builds) == 2
        run_query(query, algorithm="leapfrog", order=("a", "b", "c"))
        assert len(builds) == 2

    def test_a_slice_reuses_its_source_tries_masks(self, builds):
        instance = EncodedInstance.from_query(triangle(60, 4),
                                              ("a", "b", "c"))
        kernel = get_algorithm("generic_join")
        kernel.run(sliced_instance(instance, 0, 20))
        assert len(builds) == 2  # a slice shares its parent's record
        kernel.run(sliced_instance(instance, 20, 60))
        kernel.run(instance)
        assert len(builds) == 2
        detached = sliced_instance(instance, 0, 20, detach=True)
        kernel.run(detached)
        assert len(builds) == 2
        assert all(t._masks == [True] for t in masked_tries(detached))

    def test_a_successor_version_builds_its_own_masks(self, builds):
        relations = triangle(60, 4).relations
        versioned = VersionedRelation(relations[1])
        run_query(MultiModelQuery(relations), order=("a", "b", "c"),
                  algorithm="generic_join")
        assert len(builds) == 2
        versioned.insert((0, 59))
        run_query(MultiModelQuery([relations[0], versioned.relation,
                                   relations[2]]),
                  order=("a", "b", "c"), algorithm="generic_join")
        assert len(builds) == 3 and builds[2] not in builds[:2]
        assert builds[2].name == "S" and builds[2]._masks == [True]

    def test_codes_spread_over_a_million_never_get_bits(self):
        rows = [(0, 0), (0, 10 ** 6), (1, 999_999), (2, 500_000)]
        trie = EncodedTrie("S", ("b", "c"), rows)
        assert not algorithms._masked(trie)
        assert trie._masks == [False]
        assert not any(hasattr(node, "bits")
                       for node in trie.root.children.values())
        dense = EncodedTrie("T", ("b", "c"), [(0, 0), (0, 7), (1, 3)])
        assert algorithms._masked(dense)
        assert dense.root.children[0].bits == 0b10000001
        assert not hasattr(dense.root, "bits")


# -- (k) a last level left unexpanded ---------------------------------------

def xmark_query(factor, seed=1):
    """An XMark twig joined with a fan-out relation on ``i``: ~11 ``x``
    per interest, so the last level fans out ~11 rows per entry."""
    rng = random.Random(seed)
    document = xmark_document(factor, seed=seed)
    categories = sorted({node.value for node in document.nodes("interest")})
    relation = Relation("R", ("x", "i"),
                        [(x, category) for x in range(12)
                         for category in categories if rng.random() < 0.95])
    return MultiModelQuery([relation], [TwigBinding(
        parse_twig("p=person(/nm=name, //i=interest)"), document)],
        name="XQ")


def fanned_chain(n=5000, dense=4096, fan=12):
    """R(a, b) S(b, c): ``b`` below *dense* has one ``c``, above it
    *fan*; *n* > ``_CHUNK`` cuts the last level into chunks on both
    sides of the crossover."""
    return MultiModelQuery([
        Relation("R", ("a", "b"), [(i, i) for i in range(n)]),
        Relation("S", ("b", "c"), [(b, f"c{b}-{k}") for b in range(n)
                                   for k in range(1 if b < dense else fan)])],
        name="chain")


def disjoint_tail():
    """R(a, b) S(b, c) U(c): U shares no ``c`` with S, so every entry of
    the last level dies there."""
    return MultiModelQuery([
        Relation("R", ("a", "b"), [(i, i % 5) for i in range(40)]),
        Relation("S", ("b", "c"), [(b, c) for b in range(5)
                                   for c in range(10)]),
        Relation("U", ("c",), [(c,) for c in range(10, 20)])], name="dead")


def serial(query, algorithm, order=None):
    """A runner of *algorithm* over *query*'s instance under *order*
    (the planner's by default), built once."""
    order = order or plan_query(query).order
    instance = EncodedInstance.from_query(query, order)
    return lambda stats: get_algorithm(algorithm).run(instance, stats=stats)


def unmasked(query, algorithm):
    """:func:`serial`, its tries' masks refused before the first run."""
    instance = EncodedInstance.from_query(query, plan_query(query).order)
    gate, algorithms._MASK_BITS = algorithms._MASK_BITS, 0
    try:
        assert not any([algorithms._masked(trie) for trie in instance.tries])
    finally:
        algorithms._MASK_BITS = gate
    return lambda stats: get_algorithm(algorithm).run(instance, stats=stats)


def parallel(query, algorithm):
    """A runner of *algorithm* over *query* on two workers."""
    return lambda stats: run_query(query, algorithm=algorithm, stats=stats,
                                   workers=2)


#: (runner, whether the kernel may leave the last level unexpanded).
UNEXPANDED_CASES = {
    "mm_xmark-0.25": (lambda: serial(xmark_query(0.25), "xjoin"), True),
    "mm_xmark-1": (lambda: serial(xmark_query(1.0), "xjoin"), True),
    # Figure 3's last level is masked; unmasked, it fans out 1 per entry.
    "figure3": (lambda: serial(example34_instance(12).query, "xjoin"),
                False),
    "figure3-unmasked": (lambda: unmasked(example34_instance(12).query,
                                          "xjoin"), True),
    "checks": (lambda: serial(duplicate_branch_query(), "xjoin",
                              ("x", "a", "b", "c")), False),
    "tested": (lambda: serial(dblp_query(dblp_document(200, seed=3)),
                              "xjoin"), False),
    "masked": (lambda: serial(triangle(60, 4), "generic_join",
                              ("a", "b", "c")), False),
    "chunked": (lambda: serial(fanned_chain(), "generic_join",
                               ("a", "b", "c")), True),
    "chunked-sorted": (lambda: serial(fanned_chain(), "leapfrog",
                                      ("a", "b", "c")), True),
    "erased": (lambda: serial(figure1_query(), "xjoin",
                              ("orderLine", "orderID", "userID", "ISBN",
                               "price")), True),
    "permuted": (lambda: serial(xmark_query(0.25), "xjoin",
                                ("nm", "p", "i", "x")), True),
    "workers-2": (lambda: parallel(xmark_query(0.25), "xjoin"), None),
    "empty": (lambda: serial(disjoint_tail(), "leapfrog",
                             ("a", "b", "c")), True),
}


def run_with_fan_out(monkeypatch, run, fan_out):
    """(rows and every counter, what each kernel call returned) of
    ``run(stats)`` with the crossover at *fan_out*; phase labels, not
    their times."""
    returned = []
    original = algorithms._frontier_join

    def spy(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "_FAN_OUT", fan_out)
        patch.setattr(algorithms, "_frontier_join", spy)
        stats = JoinStats()
        result = run(stats)
    return (result, [(r.label, r.size) for r in stats.stages], stats.emitted,
            stats.filtered, stats.seeks, stats.comparisons,
            sorted(stats.phase_times)), returned


def unexpanded(returned):
    """The chunks the kernel calls left unexpanded."""
    return sum(len(factored) for _columns, factored in returned)


class TestUnexpandedLastLevel:
    @pytest.mark.parametrize("case", sorted(UNEXPANDED_CASES))
    def test_rows_and_counters_equal_the_expanded_run(self, monkeypatch,
                                                      case):
        make, eligible = UNEXPANDED_CASES[case]
        run = make()
        expanded, none = run_with_fan_out(monkeypatch, run, float("inf"))
        forced, some = run_with_fan_out(monkeypatch, run, 0)
        default, _ = run_with_fan_out(monkeypatch, run, algorithms._FAN_OUT)
        assert forced == expanded == default
        assert unexpanded(none) == 0
        if eligible is not None:
            assert (unexpanded(some) > 0) is eligible
        if case == "empty":
            assert not expanded[0].rows and expanded[1][-1][1] == 0

    def test_the_crossover_splits_chunks_by_their_fan_out(self,
                                                          monkeypatch):
        """Figure 3's last level, unmasked (one row per entry), is
        expanded; the chain's ~4 000 single-row entries are, its
        fan-out-12 ones are not; mm_xmark's ~11 rows per entry are not."""
        assert algorithms._FAN_OUT > 1
        blocks = {}
        for case in ("figure3-unmasked", "chunked", "mm_xmark-0.25"):
            make, _eligible = UNEXPANDED_CASES[case]
            _run, ((columns, factored),) = run_with_fan_out(
                monkeypatch, make(), algorithms._FAN_OUT)
            blocks[case] = (len(columns[-1]), len(factored))
        assert blocks["figure3-unmasked"][1] == 0
        assert blocks["chunked"][0] >= 4000 and blocks["chunked"][1] > 0
        assert blocks["mm_xmark-0.25"] == (0, 1)

    @pytest.mark.parametrize("width, below, above",
                             [(1, 11, 12), (2, 4, 5), (3, 2, 3)])
    def test_the_crossover_falls_with_the_prefix_width(self, width, below,
                                                       above):
        """With *width* prefix columns a chunk is left unexpanded from
        ``_FAN_OUT / width ** 1.5`` rows per live entry on: 12, 4.2 and
        2.3. The form is read off the kernel's ``factored``; the
        counters cannot see it."""
        assert algorithms._FAN_OUT == 12
        prefix = tuple(f"p{i}" for i in range(width))
        for fan_out, left in ((below, False), (above, True)):
            relation = Relation("R", (*prefix, "z"), [
                (*[entry] * width, value)
                for entry in range(50) for value in range(fan_out)])
            columns, factored = algorithms._frontier_join(
                EncodedInstance.from_relations([relation]), JoinStats(),
                "level")
            assert bool(factored) is left, (width, fan_out)
            assert len(columns[-1]) + sum(
                sum(counts) for _cols, _commons, counts in factored) \
                == len(relation)

    @pytest.mark.parametrize("permuted", [False, True])
    def test_per_entry_decode_equals_the_row_decode(self, monkeypatch,
                                                    permuted):
        """Rows come out in the caller's attribute order: ``x``, the
        last level's attribute, is first in the query's."""
        query = xmark_query(0.25)
        instance = EncodedInstance.from_query(query, plan_query(query).order)
        assert instance.order[-1] == "x" != query.attributes[-1]
        monkeypatch.setattr(algorithms, "_FAN_OUT", 0)
        columns, factored = algorithms._frontier_join(
            instance, JoinStats(), "expand", instance.twig_filters)
        assert factored and not columns[0]
        monkeypatch.setattr(algorithms, "_FAN_OUT", float("inf"))
        expanded, none = algorithms._frontier_join(
            instance, JoinStats(), "expand", instance.twig_filters)
        assert not none
        attributes = tuple(reversed(instance.order)) if permuted \
            else query.attributes
        result = instance.result_relation((columns, factored), attributes)
        assert set(result.rows) == reference_decode(instance, expanded,
                                                    attributes)

    def test_equal_erased_prefixes_collapse_to_one_row(self):
        """Two entries whose prefixes differ only in a surrogate make
        the same rows: one, after erasure."""
        query = figure1_query()
        order = ("orderLine", "orderID", "userID", "ISBN", "price")
        instance = EncodedInstance.from_query(query, order)
        code_rows, _alive, _filtered = reference_dfs(instance)
        first, second = [code for code, value
                         in enumerate(instance._level_values[0])
                         if isinstance(value, NodeSurrogate)][:2]
        prefix = [[first, second], *([code, code]
                                     for code in code_rows[0][1:-1])]
        last = code_rows[0][-1]
        collapsed = instance.result_relation(
            ([[] for _ in order], [(prefix, [(last,), (last,)], [1, 1])]),
            query.attributes)
        assert len(collapsed) == 1
        assert next(iter(collapsed))[query.attributes.index(
            "orderLine")] is None
