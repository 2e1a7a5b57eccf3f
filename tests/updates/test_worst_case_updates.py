"""A maintained answer keeps the worst-case optimal bound.

On Example 3.4 (``example34_instance(n)``) the twig alone has n^5
answers while the whole query has n. A session that turned the twig
into a relation and joined it pairwise paid that blow-up on every open
and write; :class:`QuerySession` maintains its answer through the
engine only, so an update's stages stay within the full query's.
"""

from __future__ import annotations

import inspect
import time

import pytest

from repro.data.synthetic import example34_instance
from repro.engine.planner import PreparedQuery, run_query
from repro.instrumentation import JoinStats
from repro.updates.session import QuerySession

from harness import UPDATE_SEED, clone_query, random_session_op, seeded_rng

#: The twig's tags, for inserted subtrees.
TAGS = ["B", "C", "D", "E", "F", "G", "H"]


@pytest.fixture()
def stages(monkeypatch):
    """The ``max_intermediate`` of every :meth:`PreparedQuery.run`,
    in call order (a run given no stats is counted all the same)."""
    seen: list[int] = []
    original = PreparedQuery.run

    def spy(self, stats=None):
        stats = JoinStats() if stats is None else stats
        result = original(self, stats)
        seen.append(stats.max_intermediate)
        return result

    monkeypatch.setattr(PreparedQuery, "run", spy)
    return seen


def assert_oracle(session: QuerySession, note: str) -> None:
    expected = clone_query(session.query).naive_join()
    assert session.answer().sorted_rows() == expected.sorted_rows(), \
        f"maintained answer diverged at {note}"


def test_a_large_instance_opens_and_updates_in_seconds():
    start = time.perf_counter()
    session = QuerySession(example34_instance(200).query)
    session.insert("R1", (0, 1, 2, 3))  # joins one new answer row
    session.delete("R1", (0, 4, 4, 4))  # takes one away
    assert time.perf_counter() - start <= 5.0
    answer = session.answer()
    assert len(answer) == 200
    assert answer == run_query(session.query)


def test_a_seeded_stream_stays_within_the_full_querys_stages(stages):
    rng = seeded_rng("worst-case-stream")
    session = QuerySession(example34_instance(8).query,
                           churn_threshold=0.3)
    kinds = set()
    for step in range(30):
        stages.clear()
        op, _ = random_session_op(rng, session, tags=TAGS, value_range=8)
        kinds.add(op.split(":")[0])
        note = f"step={step} op={op} (REPRO_UPDATE_SEED={UPDATE_SEED})"
        assert_oracle(session, note)
        update = list(stages)
        full = JoinStats()
        run_query(session.query, stats=full)
        assert max(update, default=0) <= full.max_intermediate, \
            f"an update stage {update} passed the full query's " \
            f"{full.max_intermediate} at {note}"
    # Relational inserts and deletes, subtree inserts and deletes and
    # value changes: all five, but for a seed that draws one too rarely.
    assert len(kinds) >= 4, kinds


def test_an_insert_after_an_unread_edit_ends_at_the_oracle():
    instance = example34_instance(8)
    session = QuerySession(instance.query)
    document = instance.document
    c = document.nodes("C")[2]
    session.change_value("X", c.children[0], "5")  # no read follows
    session.insert("R1", (0, 1, 2, 3))
    session.insert("R2", (5, 5, 5, 5))
    session.delete("R2", (2, 2, 2, 2))
    assert_oracle(session, "edit, then writes before any read")
    session.delete_subtree("X", c)
    session.insert("R1", (0, 6, 6, 6))
    assert_oracle(session, "subtree delete, then an insert")


def test_a_delete_and_an_insert_after_a_read_are_deltas(stages):
    session = QuerySession(example34_instance(8).query)
    session.answer()
    stages.clear()
    session.delete("R1", (0, 4, 4, 4))
    assert stages == []  # a scan of the maintained rows
    session.insert("R1", (0, 4, 4, 4))
    assert len(stages) == 1 and stages[0] <= 1  # Q[R1 := one row]
    assert_oracle(session, "delete, then re-insert")


def test_the_session_takes_two_options():
    parameters = inspect.signature(QuerySession).parameters
    assert [name for name, parameter in parameters.items()
            if parameter.kind is parameter.KEYWORD_ONLY] \
        == ["churn_threshold", "planner"]


def test_derived_queries_share_the_sessions_decompositions(monkeypatch):
    """A delta query and a snapshot's query are the session's query over
    other inputs: they reuse its twig decompositions, never decompose."""
    from repro.core import decomposition, multimodel
    from repro.core.multimodel import _decomposition

    session = QuerySession(example34_instance(8).query)
    session.answer()
    calls = []
    original = decomposition.decompose
    for module in (decomposition, multimodel):
        monkeypatch.setattr(module, "decompose", lambda twig: calls.append(
            twig) or original(twig))
    session.insert("R1", (0, 1, 2, 3))
    with session.pin() as snapshot:
        evaluated = snapshot.run()
        assert all(_decomposition(mine.twig) is _decomposition(its.twig)
                   for mine, its in zip(snapshot.query().twigs,
                                        session.query.twigs))
    assert evaluated == run_query(session.query)
    assert calls == []
