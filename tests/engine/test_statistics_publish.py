"""``QueryStatistics`` publishes a memo only once it is whole.

Two planners of one cold query share its statistics. Were a memo
published before it is filled, the second would read a partial dict
(at worst ``RuntimeError: dictionary changed size during iteration``).
A reader re-entering the memo from inside its own build is the
deterministic stand-in for that second thread: it must see a finished
memo or build its own, never a partial one.
"""

from __future__ import annotations

from repro.data.scenarios import bookstore_instance
from repro.engine.planner import QueryStatistics
from repro.xml.columnar import ColumnarDocument


def test_a_reentrant_reader_sees_whole_twig_domains(monkeypatch):
    stats = QueryStatistics(query := bookstore_instance(20, 5, seed=1))
    seen: "list[int]" = []
    domain = ColumnarDocument.domain

    def reentering(view, node):
        if not seen:
            seen.append(-1)
            seen[0] = len(stats.twig_domains())
        return domain(view, node)

    monkeypatch.setattr(ColumnarDocument, "domain", reentering)
    whole = stats.twig_domains()
    assert len(whole) == len(query.twigs[0].twig.nodes()) == 4
    assert seen == [4]
    del query  # held: the statistics hold it weakly


def test_a_reentrant_reader_sees_whole_order_ranks(monkeypatch):
    """``orderLine`` is existential: its rank is 1, below its domain
    estimate, and a partial memo would still hold the estimate."""
    stats = QueryStatistics(query := bookstore_instance(20, 5, seed=1))
    calls: "list[None]" = []
    seen: "list[dict]" = []
    twig_domains = stats.twig_domains

    def reentering():
        calls.append(None)
        if len(calls) == 2:  # the first feeds the domain estimates
            seen.append(dict(stats.order_ranks()))
        return twig_domains()

    monkeypatch.setattr(stats, "twig_domains", reentering)
    ranks = stats.order_ranks()
    assert ranks["orderLine"] == 1 < stats.domain_estimate("orderLine")
    assert seen == [ranks]
    del query  # held: the statistics hold it weakly
