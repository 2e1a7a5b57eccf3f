"""The drift ledger across an update stream: the oracle regime.

The property under test: a :class:`~repro.updates.session.QuerySession`
wired to an :class:`~repro.engine.adaptive.AdaptivePlanner` reports
every delta to its store's drift ledger. Small deltas keep each
input's generation and the epoch, so the raced plan holds; churn
bursts advance the generation and move the epoch once, so the planner
races again. Plans stay row-identical to the session's maintained
answer throughout.
"""

from __future__ import annotations

from repro.core.multimodel import MultiModelQuery, TwigBinding
from repro.data.synthetic import skewed_triangle
from repro.engine.adaptive import AdaptivePlanner, FeedbackStore
from repro.relational.relation import Relation
from repro.updates.session import QuerySession
from repro.xml.model import XMLDocument, element
from repro.xml.twig import TwigQuery


def skewed_query(n: int = 256) -> MultiModelQuery:
    return MultiModelQuery(skewed_triangle(n), [], name="skewed")


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
    def test_small_delta_keeps_the_generation(self):
        store = FeedbackStore()
        query = skewed_query()
        planner = AdaptivePlanner(store=store)
        session = QuerySession(query, planner=planner)
        planner.execute(query)
        # One row against 256: far below the 25% churn fraction. The
        # session swaps in a fresh Relation object; the plan holds.
        session.insert("R", (100_000, 0))
        assert store.generations(query) == {"R": 0, "S": 0, "T": 0}
        assert store.epoch == 0
        planner.execute(query)
        assert planner.racer.races == 1

    def test_churn_burst_advances_the_generation(self):
        store = FeedbackStore()
        query = skewed_query()
        planner = AdaptivePlanner(store=store)
        session = QuerySession(query, planner=planner)
        planner.execute(query)
        # One delta moving > 25% of the input (the bulk path wire
        # batches use): its generation advances and the epoch moves,
        # once.
        rows = [(200_000 + i, i % 4) for i in range(100)]
        session._apply_relation("R", inserted=rows)
        assert store.generations(query) == {"R": 1, "S": 0, "T": 0}
        assert store.epoch == 1
        planner.execute(query)
        planner.execute(query)
        assert planner.racer.races == 2

    def test_post_churn_plans_stay_row_identical(self):
        store = FeedbackStore()
        query = skewed_query()
        session = QuerySession(query, planner=AdaptivePlanner(store=store))
        planner = AdaptivePlanner(store=store)
        planner.execute(query)
        rows = [(300_000 + i, (i * 3) % 16) for i in range(120)]
        session._apply_relation("R", inserted=rows)
        session.delete("T", (0, 0))
        # Post-churn the planner races again, and its answer must match
        # the session's maintained oracle.
        result = planner.execute(query)
        assert result.rows == session.answer().rows
        assert planner.execute(query).rows == session.answer().rows


class TestDocumentRegime:
    def test_in_place_patch_inherits_rebuild_invalidates(self):
        store = FeedbackStore()
        query = doc_query()
        # Default churn_threshold: a single value edit patches the
        # columnar view in place (inherit).
        session = QuerySession(query, planner=AdaptivePlanner(store=store))
        isbn = query.twigs[0].document.root.children[0].children[0]
        session.change_value("book", isbn, "8")
        assert store.generations(query) == {"Orders": 0, "book": 0}
        assert store.epoch == 0

    def test_forced_rebuild_is_churn(self):
        store = FeedbackStore()
        query = doc_query()
        # churn_threshold=0 forces a columnar rebuild on any structural
        # edit: the maintained statistics were reconstructed wholesale,
        # so the twig input's generation advances.
        session = QuerySession(query, churn_threshold=0.0,
                               planner=AdaptivePlanner(store=store))
        book = element("book", element("isbn", text="8"),
                       element("price", text="99"))
        session.insert_subtree("book", query.twigs[0].document.root, book)
        assert store.generations(query) == {"Orders": 0, "book": 1}
        assert store.epoch == 1
