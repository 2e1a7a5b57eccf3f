"""Shared fixtures for the service tests."""

from __future__ import annotations

import pytest


@pytest.fixture
def rank_decided_races(monkeypatch):
    """Races resolve by rank, not by the wall clock: with the noise
    floor above any sample every round is a tie (the incumbent, else
    the best-ranked plan wins), so exact race and cache-hit counts hold
    on any machine. The races still run — and still count."""
    monkeypatch.setattr("repro.engine.adaptive.MIN_SIGNAL_MS", float("inf"))
