"""Tries built from code columns; twig codes read by tag ordinal.

``EncodedTrie.from_columns`` is the one construction path: the row
constructor transposes into it, and a twig input hands it its gathered
code columns, repeats and all. A node's code in its tag's dictionary is
read at ``view.tag_ranks[nid]``, its position in its tag's posting,
which the streaming builder writes, every other view fills while it
builds its postings and the update layer keeps exact:

* (a) ``from_columns`` builds, node for node, the trie of the distinct
  rows, however the columns repeat or order them, keyed by the caller's
  int objects;
* (b) ``tag_ranks`` is the same on a streamed arena and on its
  in-memory parse, however the builder is chunked, and stays exact
  through seeded edits;
* (c) every twig input of the DBLP and XMark queries is the same trie
  on a fresh attach as on the in-memory view;
* (d) a cold DBLP query over a fresh attach builds no ``nid -> code``
  map;

and ``path_relation_cardinality`` counts what the tries hold.
"""

from __future__ import annotations

import random
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.buffers.layout import as_list
from repro.buffers.mmapfile import ArenaWriter
from repro.core.decomposition import (
    _columns,
    path_relation_cardinality,
    twig_input,
)
from repro.core.multimodel import MultiModelQuery, TwigBinding, \
    _decomposition
from repro.data.dblp import dblp_chunks, dblp_query
from repro.engine import run_query
from repro.engine.encoded import _LEAF, EncodedTrie
from repro.relational.relation import Relation
from repro.updates.documents import DocumentEditor
from repro.xml import streaming
from repro.xml.arenaview import attach_arena_document
from repro.xml.columnar import ColumnarDocument, columnar
from repro.xml.generator import random_document
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_stream_chunks

# -- (a) one construction path, from columns ---------------------------------

#: Codes on both sides of the one-byte typecode and past two bytes.
CODES = st.one_of(st.integers(0, 9), st.integers(250, 260),
                  st.integers(70_000, 70_004))


def nodes(trie):
    """(level, node) for every node of *trie*, parents first."""
    found = [(0, trie.root)]
    for level, node in found:
        if level + 1 < trie.depth:
            found += [(level + 1, node.children[code]) for code in node.keys]
    return found


def assert_same_nodes(expected, built):
    """Equal node by node: keys, their buffer type and typecode, the
    children in key order, the one shared leaf under the last level."""
    assert (built.size, built.order) == (expected.size, expected.order)
    assert len(nodes(built)) == len(nodes(expected))
    for (level, ours), (_level, theirs) in zip(nodes(expected), nodes(built)):
        assert type(ours.keys) is type(theirs.keys)
        assert getattr(ours.keys, "typecode", None) \
            == getattr(theirs.keys, "typecode", None)
        assert as_list(ours.keys) == as_list(theirs.keys) \
            == list(theirs.children)
        if level + 1 == built.depth:
            assert all(child is _LEAF for child in theirs.children.values())


def fresh_ints(column):
    """*column* with a new int object per entry, equal ones included."""
    return [int(str(code)) for code in column]


@given(st.integers(0, 4).flatmap(lambda arity: st.tuples(
           st.just(arity), st.lists(st.tuples(*[CODES] * arity),
                                    max_size=40))),
       st.integers(0, 3))
def test_from_columns_is_the_trie_of_the_distinct_rows(case, slack):
    """Repeats or not, empty, zero-arity, one column or four, with or
    without (loose) code bounds: the trie of the distinct rows, keyed
    by the caller's own ints at every level."""
    arity, rows = case
    order = "abcd"[:arity]
    exact = [max((row[level] for row in rows), default=0) + slack
             for level in range(arity)]
    bounds = exact if slack else None
    distinct = list(dict.fromkeys(rows))  # in the order drawn
    expected = EncodedTrie("R", order, sorted(distinct), code_bounds=exact)
    assert list(expected.tuples()) == sorted(distinct)
    for given_rows in (rows, distinct, distinct[::-1]):
        columns = [fresh_ints(column) for column in zip(*given_rows)] \
            if given_rows else [[] for _ in order]
        built = EncodedTrie.from_columns("R", order, columns,
                                         len(given_rows), bounds)
        assert_same_nodes(expected, built)
        for level, node in nodes(built) if arity else ():
            held = {id(code) for code in columns[level]}
            assert all(id(code) in held for code in node.children)


def test_zero_arity_holds_the_empty_row_once():
    for count in (0, 1, 3):
        trie = EncodedTrie.from_columns("R", (), [], count)
        assert list(trie.tuples()) == [()] * bool(count)


# -- (b) the tag ordinal ------------------------------------------------------

CORPORA = {
    "dblp": lambda: "".join(dblp_chunks(80, seed=3)),
    "xmark": lambda: "".join(xmark_stream_chunks(0.2, seed=5)),
    "generated": lambda: serialize(random_document(
        random.Random(11), tags="abc", max_nodes=300, value_range=4)),
}


def assert_ranked(view):
    """``tag_ranks[nid]`` is *nid*'s position in its tag's posting."""
    assert len(view.tag_ranks) == view.size
    for nid in range(view.size):
        posting = view.tag_nids[view.tag_ids[nid]]
        assert posting[view.tag_ranks[nid]] == nid


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_streamed_ranks_are_the_in_memory_ones(leaks, corpus, chunk,
                                               monkeypatch):
    text = CORPORA[corpus]()
    live = columnar(parse_document(text))
    assert_ranked(live)
    if chunk:  # the builder's row groups and passes hold this many
        monkeypatch.setattr(streaming, "_ROW_GROUP", chunk)
        monkeypatch.setattr(streaming, "ArenaWriter",
                            partial(ArenaWriter, chunk_items=chunk))
    arena = streaming.stream_document([text])
    try:
        _handle, view = attach_arena_document(arena)
        assert list(view.tag_ranks) == list(live.tag_ranks)
    finally:
        arena.close()
        arena.unlink()
    assert not leaks.arena_files()


@pytest.mark.parametrize("seed", range(6))
def test_ranks_stay_exact_through_edits(seed):
    rng = random.Random(seed)
    document = random_document(rng, tags="abc", max_nodes=120,
                               value_range=4)
    editor = DocumentEditor(document, churn_threshold=float("inf"))
    kinds = set()
    for _ in range(12):
        nodes_now = list(document.root.iter())
        node = rng.choice(nodes_now)
        kind = rng.choice(("insert", "delete", "change"))
        if kind == "delete" and node.parent is not None:
            editor.delete_subtree(node)
        elif kind == "change":
            editor.change_value(node, str(rng.randrange(4)))
        else:
            kind = "insert"
            donor = rng.choice(nodes_now)
            editor.insert_subtree(node, donor.copy(),
                                  index=rng.randint(0, len(node.children)))
        kinds.add(kind)
        view = columnar(document)
        assert_ranked(view)
        assert list(view.tag_ranks) \
            == list(ColumnarDocument(document).tag_ranks)
    assert editor.rebuilds == 0 and editor.patches == 12
    assert kinds == {"insert", "delete", "change"}


# -- (c) twig inputs on a fresh attach, (d) no node -> code map ---------------

def xmark_query(document):
    interests = sorted({node.value for node in document.nodes("interest")})
    return MultiModelQuery(
        [Relation("R", ("x", "i"), [(0, value) for value in interests])],
        [TwigBinding(parse_twig("p=person(/nm=name, //i=interest)"),
                     document)], name="XQ")


QUERIES = {
    "dblp": (lambda: "".join(dblp_chunks(150, seed=1)), dblp_query),
    "xmark": (lambda: "".join(xmark_stream_chunks(0.3, seed=2)), xmark_query),
}


def twig_tries(query):
    """Per twig input (paths and A-D pairs): its trie's rows and its
    dictionaries' values."""
    found = {}
    for binding in query.twigs:
        decomposition = _decomposition(binding.twig)
        structural = query.structural_attributes(binding)
        for atom in decomposition.paths + decomposition.pairs:
            artefact, _built = twig_input(binding.document, atom, structural)
            found[atom.name] = (list(artefact.trie.tuples()), [
                list(dictionary.values)
                for dictionary in artefact.dictionaries])
    return found


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_twig_inputs_on_a_fresh_attach_are_the_in_memory_ones(name):
    text, make_query = QUERIES[name]
    text = text()
    expected = twig_tries(make_query(parse_document(text)))
    assert any(len(rows) > 1 for rows, _values in expected.values())
    arena = streaming.stream_document([text])
    try:
        handle, _view = attach_arena_document(arena)
        assert twig_tries(make_query(handle)) == expected
    finally:
        arena.close()
        arena.unlink()


def test_a_cold_dblp_query_builds_no_node_code_map():
    arena = streaming.stream_document(dblp_chunks(300, seed=1))
    try:
        handle, view = attach_arena_document(arena)
        assert run_query(dblp_query(handle)).rows
        kinds = {key[0] for key in view.derived}
        assert "node_codes" not in kinds and "tag_codes" in kinds
        assert not any(isinstance(value, dict) and len(value) >= view.size
                       for value in view.derived.values())
    finally:
        arena.close()
        arena.unlink()


# -- path_relation_cardinality counts without row tuples ----------------------

@pytest.mark.parametrize("seed", range(8))
def test_cardinality_is_the_distinct_row_count(seed):
    rng = random.Random(seed)
    document = random_document(rng, tags="ab", max_nodes=150, value_range=3)
    view = columnar(document)
    query = MultiModelQuery([], [TwigBinding(parse_twig(rng.choice((
        "x=a(/y=b)", "x=a(/y=b(/w=a), //v=b)", "x=b(//y=a(/w=b))",
        "x=a(/y=a, /w=b)"))), document)])
    binding = query.twigs[0]
    decomposition = _decomposition(binding.twig)
    for structural in (frozenset(), binding.twig.attributes):
        bound = frozenset(structural)
        for atom in decomposition.paths + decomposition.pairs:
            counted = path_relation_cardinality(document, atom, bound)
            assert counted == len(set(zip(*_columns(
                view, atom, bound.intersection(atom.attributes)))))
            artefact, _built = twig_input(document, atom, bound)
            assert artefact.trie.size == counted
