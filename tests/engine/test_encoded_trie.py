"""EncodedTrie as a trie: sorted level keys, child descent, enumeration
and re-keying; the build's stable distribution passes, against a trie
assembled node by node; and a
relation's trie under a column order
(:func:`~repro.engine.encoded.relation_input`)."""

import contextlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.buffers.layout import as_list, list_backend, make, typecode_for
from repro.engine import EncodedInstance, EncodedTrie, encoded
from repro.engine.encoded import _LEAF, EncodedTrieNode, relation_input
from repro.errors import QueryError, SchemaError
from repro.relational.relation import Relation

ROWS = [(1, 2), (1, 3), (2, 2), (5, 1)]


@pytest.fixture
def trie():
    return EncodedTrie("R", ("a", "b"), ROWS)


def descend(trie, prefix):
    """The node under *prefix*, or None when the trie has no such path."""
    node = trie.root
    for code in prefix:
        node = node.children.get(code)
        if node is None:
            return None
    return node


def decoded(artefact):
    """An encoded input's rows as values, in its trie's column order."""
    return {tuple(d.decode(code) for d, code in zip(artefact.dictionaries,
                                                    row))
            for row in artefact.trie.tuples()}


class TestConstruction:
    def test_root_keys_sorted(self, trie):
        assert as_list(trie.root.keys) == [1, 2, 5]

    def test_tuples_enumerates_sorted(self, trie):
        assert list(trie.tuples()) == ROWS

    def test_rows_need_not_arrive_sorted(self):
        trie = EncodedTrie("R", ("a", "b"), reversed(ROWS))
        assert list(trie.tuples()) == ROWS

    def test_builds_from_generator(self):
        trie = EncodedTrie("T", ("a", "b"), ((i, i % 2) for i in range(4)))
        assert as_list(trie.root.keys) == [0, 1, 2, 3]
        assert trie.size == 4

    def test_descend(self, trie):
        assert as_list(descend(trie, [1]).keys) == [2, 3]
        assert descend(trie, [1, 9]) is None
        assert descend(trie, [9]) is None

    def test_node_length_is_its_key_count(self, trie):
        assert len(trie.root) == 3
        assert len(descend(trie, [1])) == 2
        assert len(descend(trie, [5])) == 1

    def test_depth_is_the_arity(self, trie):
        assert trie.depth == 2
        assert EncodedTrie("T", ("a", "b", "c"), [(0, 0, 0)]).depth == 3

    def test_empty_rows(self):
        trie = EncodedTrie("T", ("a",), [])
        assert trie.size == 0
        assert not trie.root.children
        assert list(trie.tuples()) == []

    def test_a_repeated_row_is_stored_once(self):
        rows = [(1, 2), (1, 2), (0, 5)]
        trie = EncodedTrie("T", ("a", "b"), rows)
        assert trie.size == 2
        assert list(trie.tuples()) == [(0, 5), (1, 2)]
        assert as_list(descend(trie, [1]).keys) == [2]
        assert list(descend(trie, [1]).children) == [2]
        assert_same_nodes(trie, reference_trie(rows, 2))

    def test_code_bounds_pick_each_level_typecode(self):
        trie = EncodedTrie("T", ("a", "b"), [(1, 2)], code_bounds=[10, 300])
        assert trie.root.keys.typecode == "B"
        assert trie.root.children[1].keys.typecode == "H"

    def test_without_bounds_each_level_fits_its_codes(self):
        trie = EncodedTrie("T", ("a", "b"), [(70_000, 1), (2, 3)])
        assert trie.root.keys.typecode == "I"
        assert trie.root.children[2].keys.typecode == "B"


class TestRekeyed:
    def test_codes_map_through_the_tables(self, trie):
        clone = trie.rekeyed([[10 * code for code in range(6)], None])
        assert list(clone.tuples()) == [(10, 2), (10, 3), (20, 2), (50, 1)]
        assert clone.size == trie.size
        assert list(trie.tuples()) == ROWS

    def test_levels_below_the_deepest_table_are_shared(self, trie):
        clone = trie.rekeyed([[2 * code for code in range(6)], None])
        assert clone.root is not trie.root
        assert clone.root.children[2] is trie.root.children[1]
        deeper = trie.rekeyed([None, [code + 1 for code in range(4)]])
        assert deeper.root.children[1] is not trie.root.children[1]
        assert list(deeper.tuples()) == [(1, 3), (1, 4), (2, 3), (5, 2)]


class TestRelationInput:
    def test_columns_follow_the_global_order(self):
        r = Relation("R", ("a", "b"), [(1, 2), (3, 2)])
        artefact, _built = relation_input(r, ("b", "a"))
        trie = artefact.trie
        assert trie.order == ("b", "a")
        b, a = artefact.dictionaries
        assert [b.decode(c) for c in trie.root.keys] == [2]
        assert [a.decode(c) for c in descend(trie, [b.encode(2)]).keys] \
            == [1, 3]

    def test_order_must_cover_the_schema(self):
        r = Relation("R", ("a", "b"), [(1, 2)])
        with pytest.raises(SchemaError):
            relation_input(r, ("a", "z"))

    def test_global_order_must_be_a_permutation(self):
        r = Relation("R", ("a", "b"), [(1, 2)])
        with pytest.raises(QueryError, match="permutation"):
            EncodedInstance.from_relations([r], ("a", "z"))

    def test_default_order_is_first_appearance(self):
        r = Relation("R", ("x", "y"), [(1, 2)])
        s = Relation("S", ("z", "y"), [(2, 3)])
        assert EncodedInstance.from_relations([r]).order == ("x", "y")
        assert EncodedInstance.from_relations([r, s]).order == \
            ("x", "y", "z")

    def test_size_counts_distinct_rows(self):
        r = Relation("R", ("a", "b"), [(1, 2), (1, 2), (1, 3)])
        artefact, _built = relation_input(r, ("a", "b"))
        assert artefact.trie.size == 2


@given(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8),
                         st.integers(0, 8)), max_size=40))
def test_trie_tuples_roundtrip(rows):
    """Enumerating a trie recovers exactly its rows, sorted."""
    trie = EncodedTrie("R", ("a", "b", "c"), rows)
    assert list(trie.tuples()) == sorted(rows)
    assert trie.size == len(rows)


def assert_same_nodes(bulk, reference):
    """*bulk* and *reference* are equal node by node: keys and their
    buffer types and typecodes, children keys (the bulk trie's in key
    order) and the one shared leaf under the last level."""
    assert bulk.size == reference.size and bulk.order == reference.order
    pairs = [(0, bulk.root, reference.root)]
    for level, ours, theirs in pairs:
        assert type(ours.keys) is type(theirs.keys)
        assert getattr(ours.keys, "typecode", None) \
            == getattr(theirs.keys, "typecode", None)
        assert as_list(ours.keys) == as_list(theirs.keys)
        assert list(ours.children) == as_list(ours.keys)
        assert set(ours.children) == set(theirs.children)
        if level + 1 == bulk.depth:
            assert all(child is _LEAF for child in ours.children.values())
            assert all(child is _LEAF for child in theirs.children.values())
        else:
            pairs += [(level + 1, child, theirs.children[code])
                      for code, child in ours.children.items()]


def reference_trie(rows, arity, bounds=None):
    """The trie of *rows* assembled node by node from the sorted distinct
    rows, one typecode per level from *bounds* (default: the bulk
    build's, each level's largest code); no column pass involved."""
    order = "abcdef"[:arity]
    if bounds is None:
        bounds = [max((row[level] for row in rows), default=0)
                  for level in range(arity)]
    trie = EncodedTrie("R", order, [], code_bounds=bounds)
    distinct = sorted(set(rows))
    trie.size = len(distinct)

    def fill(node, level, group):
        keys = list(dict.fromkeys(row[level] for row in group))
        node.keys = make(typecode_for(bounds[level]), keys)
        for key in keys:
            if level + 1 == arity:
                node.children[key] = _LEAF
            else:
                child = node.children[key] = EncodedTrieNode()
                fill(child, level + 1,
                     [row for row in group if row[level] == key])

    if arity and distinct:
        fill(trie.root, 0, distinct)
    return trie


@given(st.integers(1, 4).flatmap(lambda arity: st.sets(
           st.tuples(*[st.integers(0, 300)] * arity), max_size=40)))
def test_the_bulk_build_equals_the_reference_trie(rows):
    """At every arity and on both sides of the one-byte typecode."""
    arity = len(next(iter(rows))) if rows else 2
    bulk = EncodedTrie("R", "abcdef"[:arity], rows)
    assert_same_nodes(bulk, reference_trie(rows, arity))
    assert list(bulk.tuples()) == sorted(rows)


@pytest.mark.parametrize("rows", [
    [(0,)],
    [(1, 2, 3, 4, 5, 6)],
    [(i, i, i, i) for i in range(5)],
    [(7, 1, 2, 3), (7, 1, 2, 4), (7, 1, 9, 0), (8, 0, 0, 0)],
], ids=["one row", "one deep row", "singleton chains", "shared prefixes"])
def test_chains_equal_the_reference_trie(rows):
    assert_same_nodes(EncodedTrie("R", "abcdef"[:len(rows[0])], rows),
                      reference_trie(rows, len(rows[0])))


@pytest.mark.parametrize("bound", [255, 256, 65_535, 65_536, 2 ** 32 - 1,
                                   2 ** 32])
def test_every_typecode_boundary_equals_the_reference_trie(bound):
    rows = [(bound, 0), (0, bound), (bound, bound), (1, 1)]
    bulk = EncodedTrie("R", ("a", "b"), rows)
    assert bulk.root.keys.typecode == typecode_for(bound)
    assert_same_nodes(bulk, reference_trie(rows, 2))


@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 300),
                         st.integers(0, 9)), max_size=30))
def test_list_backend_equals_the_reference_trie(rows):
    with list_backend():
        bulk = EncodedTrie("R", ("a", "b", "c"), rows)
        reference = reference_trie(rows, 3)
    assert type(bulk.root.keys) is list
    assert_same_nodes(bulk, reference)


@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30))
def test_trie_any_order_same_content(rows):
    """A relation's trie under a permuted order stores permuted rows."""
    r = Relation("R", ("a", "b"), rows)
    forward, _built = relation_input(r, ("a", "b"))
    backward, _built = relation_input(r, ("b", "a"))
    assert decoded(forward) == set(rows)
    assert {(a, b) for (b, a) in decoded(backward)} == set(rows)


# -- the build: stable distributions, last column first -----------------------

#: Codes on both sides of the one- and two-byte typecodes.
BOUNDARY_CODES = st.one_of(st.integers(0, 9), st.integers(250, 260),
                           st.integers(65_530, 65_540))


def suffix_sorted(rows, ordered):
    """*rows* with each of their last *ordered* columns sorted on its
    own: those columns are non-decreasing in input order, so the build
    skips their passes (all of them when *ordered* is the arity)."""
    if not rows or not ordered:
        return list(rows)
    columns = [list(column) for column in zip(*rows)]
    for level in range(len(columns) - ordered, len(columns)):
        columns[level].sort()
    return list(zip(*columns))


@given(st.integers(1, 4).flatmap(lambda arity: st.tuples(
           st.just(arity),
           st.lists(st.tuples(*[BOUNDARY_CODES] * arity), max_size=40),
           st.integers(0, arity))),
       st.integers(0, 2), st.booleans(), st.booleans())
@pytest.mark.parametrize("sparse", [float("inf"), -1],
                         ids=["distributed", "keyed"])
def test_the_built_trie_is_the_reference_one(sparse, case, slack,
                                             backwards, listed):
    """Any arity, rows repeated or not, in drawn or reversed order, with
    0 to all of their trailing columns already in order, codes on both
    sides of the typecode boundaries, exact or loose bounds, typed or
    list buffers; every pass a distribution, or every pass a keyed
    sort: the trie assembled node by node, keyed by the caller's
    ints."""
    arity, drawn, ordered = case
    rows = suffix_sorted(drawn, ordered)
    if backwards:
        rows.reverse()
    order = "abcd"[:arity]
    bounds = [max((row[level] for row in rows), default=0) + slack
              for level in range(arity)]
    columns = [[int(str(code)) for code in column]  # fresh int objects
               for column in zip(*rows)] if rows else [[] for _ in order]
    with list_backend() if listed else contextlib.nullcontext(), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoded, "_SPARSE", sparse)
        built = EncodedTrie.from_columns("R", order, columns, len(rows),
                                         bounds)
        reference = reference_trie(rows, arity, bounds)
    assert list(built.tuples()) == sorted(set(rows))
    assert_same_nodes(built, reference)
    pairs = [(0, built.root)]
    for level, node in pairs:
        held = {id(code) for code in columns[level]}
        assert all(id(code) in held for code in node.children)
        if level + 1 < arity:
            pairs += [(level + 1, child) for child in node.children.values()]


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_sparse_codes_sort_by_key(arity, monkeypatch):
    """Codes up to 2**32 - 1 under loose bounds: every pass is a keyed
    sort, never a bucket per code."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return sorted(*args, **kwargs)

    monkeypatch.setattr(encoded, "sorted", counted, raising=False)
    rng = random.Random(arity)
    for top in (10 ** 6, 2 ** 32 - 1):  # a leak at 10**6 fails cheaply
        rows = [tuple(rng.choice((0, 7, top // 2, top))
                      for _ in range(arity)) for _ in range(50)]
        calls.clear()
        trie = EncodedTrie("R", "abc"[:arity], rows,
                           code_bounds=[top] * arity)
        assert calls == [50] * arity
        assert list(trie.tuples()) == sorted(set(rows))
        assert trie.root.keys.typecode == typecode_for(top)


def test_dense_codes_distribute(monkeypatch):
    """Dictionary-dense codes never take the keyed sort."""
    monkeypatch.setattr(encoded, "sorted", lambda *args, **kwargs: pytest.fail(
        "a dense column was sorted by key"), raising=False)
    rng = random.Random(5)
    rows = [(rng.randrange(40), rng.randrange(3), rng.randrange(40))
            for _ in range(60)]
    trie = EncodedTrie("R", ("a", "b", "c"), rows, code_bounds=[39, 2, 39])
    assert list(trie.tuples()) == sorted(set(rows))
