"""Feedback corrections across an update stream: the oracle regime.

The property under test: a :class:`~repro.updates.session.QuerySession`
wired to a :class:`~repro.engine.adaptive.FeedbackStore` lets small
deltas *inherit* learned corrections (the maintained statistics were
patched, so the factors still describe the data) while churn bursts
*invalidate* them — and after a burst no plan ever consumes a stale
factor: every read is version-key checked and returns the neutral 1.0
until re-learned. Plans stay row-identical to the session's maintained
answer throughout.
"""

from __future__ import annotations

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.data.synthetic import skewed_triangle
from repro.engine.adaptive import (
    AdaptivePlanner,
    FeedbackStore,
    estimated_stage_sizes,
)
from repro.engine.planner import attribute_order, run_query
from repro.instrumentation import JoinStats
from repro.relational.relation import Relation
from repro.updates.session import QuerySession
from repro.xml.model import XMLDocument, element
from repro.xml.twig import TwigQuery


def skewed_query(n: int = 256) -> MultiModelQuery:
    return MultiModelQuery(skewed_triangle(n), [], name="skewed")


def learn(store: FeedbackStore, query: MultiModelQuery) -> list:
    """Execute once on the static-stats order and fold the feedback."""
    order = attribute_order(query, "connected")
    stats = JoinStats()
    run_query(query, order=order, stats=stats)
    store.observe(query, order, stats)
    return estimated_stage_sizes(query, order)


def doc_query() -> MultiModelQuery:
    document = XMLDocument(element(
        "lib",
        element("book", element("isbn", text="7"),
                element("price", text="30")),
        element("book", element("isbn", text="9"),
                element("price", text="40")),
    ))
    root = TwigQuery.build(
        "book", lambda book: (book.child("isbn"), book.child("price")),
        name="book")
    orders = Relation("Orders", ("user", "isbn"), [(1, 7), (2, 9), (3, 8)])
    return MultiModelQuery([orders], [TwigBinding(root, document)],
                           name="Q")


class TestRelationalRegime:
    def test_small_delta_inherits_corrections(self):
        store = FeedbackStore()
        query = skewed_query()
        session = QuerySession(query, planner=AdaptivePlanner(store=store))
        estimates = learn(store, query)
        last = estimates[-1]
        learned = store.stage_factor(query, last.source, last.attribute,
                                     last.prefix)
        assert learned != 1.0
        epoch = store.epoch
        # One row against 256: far below the 25% churn fraction. The
        # session swaps in a fresh Relation object, so without the
        # inherit hook the version-key check would zero the factor.
        session.insert(last.source, (100_000, 0))
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix) == learned
        assert store.epoch == epoch

    def test_churn_burst_invalidates_corrections(self):
        store = FeedbackStore()
        query = skewed_query()
        session = QuerySession(query, planner=AdaptivePlanner(store=store))
        estimates = learn(store, query)
        last = estimates[-1]
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix) != 1.0
        epoch = store.epoch
        # One delta moving > 25% of the input (the bulk path wire
        # batches use): every correction attributed to it is dropped.
        rows = [(200_000 + i, i % 4) for i in range(100)]
        session._apply_relation(last.source, inserted=rows)
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix) == 1.0
        assert store.epoch > epoch
        # And no read path resurrects it: a marginal lookup is neutral
        # too, because the version stamp itself was dropped.
        assert store.stage_factor(query, last.source, last.attribute,
                                  None) == 1.0

    def test_post_churn_plans_stay_row_identical(self):
        store = FeedbackStore()
        query = skewed_query()
        session = QuerySession(query, planner=AdaptivePlanner(store=store))
        planner = AdaptivePlanner(store=store)
        planner.execute(query)
        rows = [(300_000 + i, (i * 3) % 16) for i in range(120)]
        session._apply_relation("R", inserted=rows)
        session.delete("T", (0, 0))
        # Post-churn the planner races fresh (neutral factors) and its
        # answer must match the session's maintained oracle.
        result = planner.execute(query)
        assert result.rows == session.answer().rows
        planner.execute(query)  # re-learned factors: still identical
        assert planner.execute(query).rows == session.answer().rows

    def test_unnotified_store_is_safe_by_version_keys(self):
        # Even *without* the session hooks (planner=None), a store
        # observed against the old version never leaks factors into the
        # updated query: the relation object changed, the stamp
        # mismatches, every read is neutral.
        store = FeedbackStore()
        query = skewed_query()
        session = QuerySession(query)
        estimates = learn(store, query)
        last = estimates[-1]
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix) != 1.0
        session.insert(last.source, (400_000, 1))
        assert store.stage_factor(query, last.source, last.attribute,
                                  last.prefix) == 1.0


class TestDocumentRegime:
    def test_in_place_patch_inherits_rebuild_invalidates(self):
        store = FeedbackStore()
        query = doc_query()
        # Default churn_threshold: a single value edit patches the
        # columnar view in place (inherit).
        session = QuerySession(query, planner=AdaptivePlanner(store=store))
        learn(store, query)
        epoch = store.epoch
        isbn = query.twigs[0].document.root.children[0].children[0]
        session.change_value("book", isbn, "8")
        assert store.epoch == epoch  # inherited, stamp refreshed

    def test_forced_rebuild_is_churn(self):
        store = FeedbackStore()
        query = doc_query()
        # churn_threshold=0 forces a columnar rebuild on any structural
        # edit: the maintained statistics were reconstructed wholesale,
        # so the learned corrections must go.
        session = QuerySession(query, churn_threshold=0.0,
                               planner=AdaptivePlanner(store=store))
        learn(store, query)
        epoch = store.epoch
        book = element("book", element("isbn", text="8"),
                       element("price", text="99"))
        session.insert_subtree("book", query.twigs[0].document.root, book)
        assert store.epoch > epoch
        assert store.stage_factor(query, "book", "book", None) == 1.0
