"""Twig tries where document order is not the tries' order.

A twig input's code columns arrive in document order (the leaves of a
path, the lower nodes of an A-D pair), which the trie build exploits:
a column already in order takes no pass. These documents break that
order on purpose — a path's leaves sitting at different depths under
nested same-tag elements, parents with two children of equal value,
random trees — and check, on the in-memory view and on a streamed
arena, under both column orders and with or without identity-bound
attributes:

* every path and A-D pair trie holds exactly the sorted distinct rows
  of its code columns (``_columns``);
* ``run_query`` answers what the ``naive`` matcher does.
"""

from __future__ import annotations

import random

import pytest

from repro.core.decomposition import _columns, twig_input
from repro.core.multimodel import MultiModelQuery, TwigBinding, \
    _decomposition
from repro.engine import run_query
from repro.relational.relation import Relation
from repro.xml import streaming
from repro.xml.arenaview import attach_arena_document
from repro.xml.columnar import columnar
from repro.xml.generator import random_document
from repro.xml.interface import get_twig_algorithm
from repro.xml.parser import parse_document
from repro.xml.serializer import serialize
from repro.xml.twig_parser import parse_twig

DOCUMENTS = {
    # a(/y)'s leaves: the inner a's y comes first in document order,
    # yet its parent is the later a.
    "nested": "<r><a><a><y>1</y></a><y>2</y></a>"
              "<a><y>0</y><a><a><y>2</y></a><y>1</y></a></a></r>",
    # Two children of equal value under one parent: a repeated row.
    "equal values": "<r><a><y>1</y><y>1</y><y>0</y></a>"
                    "<a><y>1</y></a><a/><a><y>3</y><y>3</y></a></r>",
    "random": serialize(random_document(
        random.Random(7), tags="ay", max_nodes=120, max_depth=8,
        value_range=3)),
}

TWIGS = ["x=a(/v=y)", "x=a(//v=y)", "x=a(/v=y, /w=y)",
         "x=a(/u=a(/v=y))", "x=a(//u=a(/v=y), /w=y)"]


def queries(document, pattern):
    """The twig alone (every attribute bound by identity) and joined
    with a relation on ``v`` (bound by value)."""
    twig = parse_twig(pattern)
    yield MultiModelQuery([], [TwigBinding(twig, document)])
    yield MultiModelQuery([Relation("R", ("v",), [(0,), (1,), (2,)])],
                          [TwigBinding(twig, document)])


def check(document):
    view = columnar(document)
    for pattern in TWIGS:
        for query in queries(document, pattern):
            binding = query.twigs[0]
            decomposition = _decomposition(binding.twig)
            structural = query.structural_attributes(binding)
            for atom in decomposition.paths + decomposition.pairs:
                bound = structural.intersection(atom.attributes)
                coded = dict(zip(atom.attributes,
                                 _columns(view, atom, bound)))
                for order in (atom.attributes, atom.attributes[::-1]):
                    trie = twig_input(document, atom, structural,
                                      order)[0].trie
                    rows = set(zip(*[coded[name] for name in trie.order]))
                    assert list(trie.tuples()) == sorted(rows), \
                        (pattern, atom, order)
                    assert trie.size == len(rows)
            naive = get_twig_algorithm("naive").run(document,
                                                    binding.twig)
            expected = naive.rows if not query.relations else {
                row for row in naive.rows
                if row[binding.twig.attributes.index("v")] in (0, 1, 2)}
            assert run_query(query).project(
                binding.twig.attributes).rows == expected, pattern


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_in_memory_view(name):
    check(parse_document(DOCUMENTS[name]))


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_streamed_arena(leaks, name):
    arena = streaming.stream_document([DOCUMENTS[name]])
    try:
        handle, _view = attach_arena_document(arena)
        check(handle)
    finally:
        arena.close()
        arena.unlink()
    assert not leaks.arena_files()
