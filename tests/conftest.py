"""Fixtures shared by every suite."""

from __future__ import annotations

import pytest

from repro.buffers.mmapfile import leaked_arena_files
from repro.buffers.shm import leaked_segments


@pytest.fixture()
def small_chunks(monkeypatch):
    """``ParallelExecutor.run_twig`` makes the serial call for ``accel``
    when the root posting fits one chunk of its kernel; test documents
    are that small, so shrink the chunk wherever ``accel`` must cross
    the pool."""
    from repro.xml import accel

    monkeypatch.setattr(accel, "CHUNK", 2)


class LeakRecord:
    """Arena files and shared-memory segments present at session start.

    Leak checks ask for what appeared since: leftovers of other
    processes (an earlier, killed run) are not this run's leaks, while
    anything created during the run still counts, whichever process —
    a forked worker included — created it.
    """

    def __init__(self):
        self.before = {*leaked_arena_files(), *leaked_segments()}

    def arena_files(self) -> list[str]:
        """``repro-arena-`` temp files created since the session began."""
        return [path for path in leaked_arena_files()
                if path not in self.before]

    def segments(self) -> list[str]:
        """Arena segments in ``/dev/shm`` created since the session began."""
        return [name for name in leaked_segments()
                if name not in self.before]


@pytest.fixture(scope="session", autouse=True)
def leaks():
    """The session's :class:`LeakRecord`, taken before the first test."""
    return LeakRecord()
