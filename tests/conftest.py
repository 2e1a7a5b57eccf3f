"""Fixtures shared by every suite."""

from __future__ import annotations

import pytest


@pytest.fixture()
def small_chunks(monkeypatch):
    """``ParallelExecutor.run_twig`` makes the serial call for ``accel``
    when the root posting fits one chunk of its kernel; test documents
    are that small, so shrink the chunk wherever ``accel`` must cross
    the pool."""
    from repro.xml import accel

    monkeypatch.setattr(accel, "CHUNK", 2)
