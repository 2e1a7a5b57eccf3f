"""Freshness of statistics across updates.

After every update batch the statistics the planner reads must *equal*
their rebuild-from-scratch counterparts:

* a :class:`VersionedRelation`'s current relation's
  :func:`~repro.engine.planner.cached_relation_stats` vs a full
  :func:`~repro.relational.statistics.relation_stats` rescan;
* the :class:`DocumentStats` of a :class:`DocumentEditor`-patched
  document vs stats computed on a cloned, freshly indexed document;
* the planner's :class:`QueryStatistics` entry refreshing (not
  dropping) across updates.
"""

from __future__ import annotations

from repro.core.multimodel import MultiModelQuery
from repro.data.random_instances import (
    random_multimodel_instance,
    random_relation,
)
from repro.engine.planner import (
    cached_relation_stats,
    statistics_for,
)
from repro.relational.statistics import relation_stats
from repro.updates.documents import DocumentEditor
from repro.updates.relations import VersionedRelation
from repro.updates.session import QuerySession
from repro.xml.columnar import document_stats
from harness import clone_document, clone_query, random_session_op, \
    random_subtree, seeded_rng


def test_relation_stats_follow_every_batch():
    rng = seeded_rng("relation-stats")
    relation = random_relation(rng, "R", ["a", "b", "c"], max_rows=20,
                               value_range=5)
    versioned = VersionedRelation(relation)
    for step in range(40):
        row = tuple(rng.randint(0, 5) for _ in range(3))
        if rng.random() < 0.5:
            versioned.insert(row)
        else:
            versioned.delete(row)
        stats = cached_relation_stats(versioned.relation)
        assert stats == relation_stats(versioned.relation), f"step {step}"
        # Memoised on the version: a second read is the same object.
        assert cached_relation_stats(versioned.relation) is stats


def test_relation_stats_batch_and_noop_filtering():
    versioned = VersionedRelation(
        random_relation(seeded_rng("batch"), "R", ["a", "b"]))
    present = next(iter(versioned.relation.rows), None)
    delta = versioned.apply(
        inserted=[(9, 9), (9, 9)] + ([present] if present else []),
        deleted=[(123, 456)])
    assert delta.inserted == ((9, 9),)
    assert delta.deleted == ()
    assert cached_relation_stats(versioned.relation) \
        == relation_stats(versioned.relation)


def test_document_stats_follow_every_edit():
    rng = seeded_rng("document-stats")
    for trial in range(2):
        instance = random_multimodel_instance(rng.randrange(10_000))
        document = instance.twigs[0].document
        editor = DocumentEditor(document)
        for step in range(12):
            nodes = document.nodes()
            roll = rng.random()
            if roll < 0.4:
                editor.insert_subtree(rng.choice(nodes),
                                      random_subtree(rng, ["x", "y", "z"]))
            elif roll < 0.7 and len(nodes) > 1:
                editor.delete_subtree(rng.choice(nodes[1:]))
            else:
                editor.change_value(rng.choice(nodes),
                                    str(rng.randint(0, 3)))
            maintained = document_stats(document)
            scratch = document_stats(clone_document(document))
            assert maintained == scratch, f"trial {trial}, step {step}"


def test_a_versions_stats_are_its_own_whenever_they_are_read():
    """The patch path edits the view's postings in place: stats taken
    before an edit must still count the document as it stood, and the
    next read counts it as it stands."""
    from repro.xml.model import XMLDocument, element

    document = XMLDocument(element(
        "r", element("a", element("b"), element("b")), element("a")))
    editor = DocumentEditor(document)
    before = document_stats(document)
    view = document.view
    crowded = document.nodes("a")[1]
    for _ in range(5):
        editor.insert_subtree(crowded, element("b"))
    assert document.view is view  # spliced in place
    assert document_stats(document).tag_counts["b"] == 7
    assert document_stats(document).path_counts[("r", "a", "b")] == 7
    assert before.tag_counts["b"] == 2
    assert before.path_counts[("r", "a", "b")] == 2


def test_trie_rows_reject_wrong_arity():
    """Regression: a short or long row must not be cut to the shortest
    column and silently corrupt the trie and its size."""
    from repro.engine.encoded import EncodedTrie
    from repro.errors import EngineError
    import pytest

    for rows in ([(1, 2), (1,)], [(1,), (1, 2)], [(1, 2), (1, 2, 3)]):
        with pytest.raises(EngineError, match="arity"):
            EncodedTrie("R", ("a", "b"), rows)
    trie = EncodedTrie("R", ("a", "b"), [(1, 2), (1, 3)])
    assert trie.size == 2
    assert list(trie.tuples()) == [(1, 2), (1, 3)]


def test_query_statistics_refresh_not_drop():
    rng = seeded_rng("planner-refresh")
    query = random_multimodel_instance(rng.randrange(10_000))
    session = QuerySession(query)
    stats = statistics_for(query)
    before = stats.domain_estimates()
    for _ in range(4):
        random_session_op(rng, session, tags=["x", "y", "z"])
    # The cached entry survives updates (refresh, not drop) ...
    assert statistics_for(query) is stats
    # ... and re-derives the estimates from the maintained inputs,
    # matching a from-scratch clone's estimates exactly.
    clone = clone_query(query)  # held: the stats entry is a weakref
    fresh = statistics_for(clone)
    assert stats.domain_estimates() == fresh.domain_estimates()
    assert stats.path_cardinality_estimates() == \
        fresh.path_cardinality_estimates()
    del before
