"""XJoin as a pure twig matcher: must equal naive matching exactly.

With no relational tables every twig attribute is surrogate-eligible, so
this exercises the identity-binding path end to end: decomposition, path
tries with surrogates, structure validation resolving surrogates, and
erasure back to value-level results.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from pushdown_harness import relaxed_then_naive

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.core.xjoin import xjoin
from repro.data.random_instances import random_twig
from repro.instrumentation import JoinStats
from repro.xml.generator import random_document
from repro.xml.navigation import match_relation
from repro.xml.twigstack import twig_stack


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_twig_only_xjoin_equals_naive(doc_seed, twig_seed):
    doc = random_document(random.Random(doc_seed), tags=("x", "y", "z"),
                          max_nodes=25, value_range=2)
    twig = random_twig(random.Random(twig_seed), ["x", "y", "z"],
                       max_nodes=5)
    query = MultiModelQuery([], [TwigBinding(twig, doc)])
    expected = match_relation(doc, twig).project(query.attributes)
    assert xjoin(query) == expected
    assert xjoin(query, "connected") == expected
    assert relaxed_then_naive(query) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_twig_only_lemma35_with_surrogates(doc_seed, twig_seed):
    doc = random_document(random.Random(doc_seed), tags=("x", "y"),
                          max_nodes=20, value_range=1)
    twig = random_twig(random.Random(twig_seed), ["x", "y"], max_nodes=4)
    query = MultiModelQuery([], [TwigBinding(twig, doc)])
    bound = query.size_bound().bound_ceiling
    stats = JoinStats()
    xjoin(query, stats=stats)
    assert stats.max_intermediate <= bound


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5_000), st.integers(0, 5_000))
def test_twig_only_xjoin_equals_twigstack(doc_seed, twig_seed):
    """Two completely different engines, same answers."""
    doc = random_document(random.Random(doc_seed), tags=("x", "y"),
                          max_nodes=20, value_range=2)
    twig = random_twig(random.Random(twig_seed), ["x", "y"], max_nodes=4)
    query = MultiModelQuery([], [TwigBinding(twig, doc)])
    assert xjoin(query) == \
        twig_stack(doc, twig).project(query.attributes)
