"""One value dictionary per tag: ``ColumnarDocument.tag_dictionary``.

A streamed arena stores it at build time and any other view derives it
from the tag's values; both must equal one definition, for every tag
and however the builder's pass is chunked. Its readers —
``NodeDictionary``, the static skip test, the planner's domains, the
twig inputs — read it instead of decoding values, so a cold query over
a freshly attached arena decodes none.
"""

from __future__ import annotations

import operator
import random
from functools import partial
from itertools import accumulate, compress

import pytest

from repro.buffers.mmapfile import ArenaWriter
from repro.core.decomposition import (
    decompose,
    materialize_path_relation,
    twig_input,
)
from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.core.surrogate import NodeSurrogate, node_dictionary
from repro.core.validation import _identifies_nodes
from repro.data.dblp import dblp_chunks, dblp_document, dblp_query
from repro.engine import run_query
from repro.engine.encoded import EncodedTrie
from repro.relational.relation import Relation
from repro.relational.schema import sort_key
from repro.xml import streaming
from repro.xml.arenaview import ArenaValues, attach_arena_document
from repro.xml.columnar import columnar
from repro.xml.parser import parse_document
from repro.xml.twig_parser import parse_twig
from repro.xml.xmark import xmark_stream_chunks

#: An int, a float equal to it, strings, a bigint past 2**63, valueless
#: nodes, and a tag with no value at all.
MIXED = ("<r><n>1</n><n>x</n><n>1.0</n><n/><n>18446744073709551616</n>"
         "<n>-3</n><m>2.5</m><m>2</m><n/><e/><e/><m>x</m></r>")

CORPORA = {
    "mixed": lambda: MIXED,
    "dblp": lambda: "".join(dblp_chunks(60, seed=3)),
    "xmark": lambda: "".join(xmark_stream_chunks(0.2, seed=5)),
}


def definition(view, tag):
    """The dictionary as defined, from each node's own value: distinct
    values in ``sort_key`` order, each as its first holder has it, then
    the valueless numbered in document order."""
    values = [view.values[nid] for nid in view.postings(tag)[0]]
    distinct = sorted(set(values) - {None}, key=sort_key)
    code = {value: rank for rank, value in enumerate(distinct)}
    codes, extra = [], len(distinct)
    for value in values:
        if value is None:
            codes.append(extra)
            extra += 1
        else:
            codes.append(code[value])
    return tuple(distinct), codes, values.count(None)


def comparable(dictionary):
    values, codes, valueless = dictionary
    return values, list(map(type, values)), list(codes), valueless


@pytest.mark.parametrize("chunk_items", [1, 7, None])
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_stored_equals_derived_for_every_tag(leaks, corpus, chunk_items,
                                             monkeypatch):
    text = CORPORA[corpus]()
    live = columnar(parse_document(text))
    if chunk_items:  # the builder's passes read this many entries
        monkeypatch.setattr(streaming, "ArenaWriter",
                            partial(ArenaWriter, chunk_items=chunk_items))
    arena = streaming.stream_document([text])
    try:
        _handle, view = attach_arena_document(arena)
        assert view.stored_dictionary is not None
        for tag in (*live.tags, "absent"):
            expected = comparable(definition(live, tag))
            assert comparable(live.tag_dictionary(tag)) == expected, tag
            assert comparable(view.tag_dictionary(tag)) == expected, tag
    finally:
        arena.close()
        arena.unlink()
    assert not leaks.arena_files()


def test_mixed_values():
    view = columnar(parse_document(MIXED))
    values, codes, valueless = view.tag_dictionary("n")
    assert values == (-3, 1, 18446744073709551616, "x")
    assert type(values[1]) is int  # the first holder's 1, not 1.0
    assert list(codes) == [1, 3, 1, 4, 2, 0, 5] and valueless == 2
    codes, dictionary = view.tag_codes("n")
    assert codes == [1, 3, 1, 4, 2, 0, 4]
    assert dictionary.values == (-3, 1, 18446744073709551616, "x", None)
    assert view.tag_dictionary("m")[:2] == ((2, 2.5, "x"), [1, 0, 2])
    assert view.tag_codes("m")[1].values == (2, 2.5, "x")  # no None: none valueless
    assert view.tag_dictionary("e") == ((), [0, 1], 2)
    assert view.tag_dictionary("absent") == ((), [], 0)


#: ``nan`` parses to a float no value equals, itself included, so a
#: sort of a domain holding it depends on the order it is given in.
NAN = "<r>" + "".join(f"<a>{i}<n>{text}</n></a>" for i, text in enumerate(
    ("nan", "1", "nan", "0.5", "", "x", "1", *["nan"] * 6))) + "</r>"


@pytest.mark.parametrize("corpus", sorted({**CORPORA, "nan": lambda: NAN}))
def test_the_value_level_dictionary_is_the_tag_dictionary_as_it_stands(
        corpus):
    """``tag_codes``' dictionary holds the tag's values in the tag
    dictionary's own positions (then ``None``), not sorted again: the
    codes in the twig inputs' columns decode through it."""
    text = CORPORA.get(corpus, lambda: NAN)()
    arena = streaming.stream_document([text])
    try:
        _handle, attached = attach_arena_document(arena)
        for view in (columnar(parse_document(text)), attached):
            for tag in view.tags:
                values, codes, valueless = view.tag_dictionary(tag)
                dictionary = view.tag_codes(tag)[1]
                expected = (*values, *[None] * bool(valueless))
                assert len(dictionary.values) == len(expected)
                assert all(map(operator.is_, dictionary.values, expected))
    finally:
        arena.close()
        arena.unlink()


def test_twig_columns_decode_to_each_nodes_own_value():
    document = parse_document(NAN)
    view = columnar(document)
    path = decompose(parse_twig("a(/n)")).paths[0]
    encoded, _built = twig_input(document, path)
    assert encoded.dictionaries[1] is view.tag_codes("n")[1]
    # Tuples compare elementwise by identity first: each nan is itself.
    assert materialize_path_relation(document, path).rows == {
        (view.values[view.parents[nid]], view.values[nid])
        for nid in view.postings("n")[0]}


def per_node_construction(nids, starts, values):
    """``NodeDictionary`` as it was built from per-node values: a sort
    of its own and a code per node from a generator."""
    missing = [value is None for value in values]
    head = tuple(sorted(set(values).difference((None,)), key=sort_key))
    identities = list(compress(starts, missing))
    codes = {value: code for code, value in enumerate(head)}
    first = len(head) - 1
    node_codes = dict(zip(nids, (
        first + rank if absent else codes[value]
        for value, absent, rank in zip(values, missing,
                                       accumulate(missing)))))
    return head, identities, codes, node_codes


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_node_dictionary_equals_the_per_node_construction(corpus):
    text = CORPORA[corpus]()
    arena = streaming.stream_document([text])
    try:
        _handle, attached = attach_arena_document(arena)
        for view in (columnar(parse_document(text)), attached):
            for tag in view.tags:
                nids, starts, _ends = view.postings(tag)
                head, identities, codes, node_codes = per_node_construction(
                    nids, starts, [view.values[nid] for nid in nids])
                found = node_dictionary(view, tag)
                stored = view.tag_dictionary(tag)[1]
                assert {nid: stored[view.tag_ranks[nid]]
                        for nid in nids} == node_codes
                assert found.codes == codes
                assert found.values.head == head
                assert list(found.values.starts) == identities
                assert list(found.values) == [
                    *head, *map(NodeSurrogate, identities)]
                assert found._erased == head + (None,) * len(identities)
    finally:
        arena.close()
        arena.unlink()


def test_a_cold_dblp_query_over_a_fresh_attach_decodes_no_value(
        monkeypatch):
    gathered = []
    gather = ArenaValues.gather
    monkeypatch.setattr(
        ArenaValues, "gather",
        lambda self, nids: gathered.append(len(nids)) or gather(self, nids))
    arena = streaming.stream_document(dblp_chunks(300, seed=1))
    try:
        handle, _view = attach_arena_document(arena)
        rows = run_query(dblp_query(handle))
        assert gathered == []
        assert rows == run_query(dblp_query(dblp_document(300, seed=1)))
    finally:
        arena.close()
        arena.unlink()


def random_text(rng):
    def element(depth):
        children = "".join(element(depth + 1) for _ in range(
            rng.randint(0, 3) if depth < 4 else 0))
        tag = rng.choice("abc")
        text = rng.choice(("", "", "1", "1.0", "2", "x", "y"))
        return f"<{tag}>{text}{children}</{tag}>"
    return "<r>" + "".join(element(1)
                           for _ in range(rng.randint(1, 4))) + "</r>"


def test_identifies_nodes_is_the_value_index_rule():
    seen = set()
    for seed in range(40):
        view = columnar(parse_document(random_text(random.Random(seed))))
        for tag in (*view.tags, "absent"):
            for structural in (False, True):
                rule = all(len(nids) == 1 for value, nids
                           in view.value_index(tag).items()
                           if not (structural and value is None))
                assert _identifies_nodes(view, tag, structural) == rule, \
                    (seed, tag, structural)
                seen.add(rule)
    assert seen == {False, True}


def test_rekeying_maps_nothing_through_an_empty_table():
    clone = EncodedTrie("P", ("z", "a"), []).rekeyed([[], [1]])
    assert clone.size == 0 and not len(clone.root.keys)
    assert not list(clone.tuples())


def test_a_path_without_chains_over_a_tag_with_values():
    """``a/z`` has no chain: ``z`` is absent (an empty dictionary that
    ``S`` widens) while ``a`` has a value (one ``R`` widens), so the
    path's trie is re-keyed through an empty table and a full one."""
    query = MultiModelQuery(
        [Relation("R", ("a",), [(1,), (5,)]), Relation("S", ("z",), [(2,)])],
        [TwigBinding(parse_twig("a(/z)", name="T"),
                     parse_document("<r><a>1</a></r>"))])
    for order in (("z", "a"), ("a", "z")):
        assert run_query(query, order=order) == query.naive_join()
