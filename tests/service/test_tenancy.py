"""Tenant quotas and session accounting (no server, no sockets)."""

from __future__ import annotations

import pytest

from repro.data.scenarios import figure1_query
from repro.errors import ServiceError
from repro.service.tenancy import SessionManager, TenantQuota
from repro.updates.session import QuerySession


def open_session(manager: SessionManager, tenant: str):
    return manager.admit_session(tenant)


@pytest.fixture
def corpus() -> QuerySession:
    """The one corpus state every session pins on."""
    return QuerySession(figure1_query())


class TestSessionQuota:
    def test_session_limit_is_per_tenant(self):
        manager = SessionManager(TenantQuota(max_sessions=2))
        open_session(manager, "a")
        open_session(manager, "a")
        with pytest.raises(ServiceError) as info:
            open_session(manager, "a")
        assert info.value.code == "quota"
        open_session(manager, "b")  # another tenant is unaffected

    def test_close_frees_a_slot(self):
        manager = SessionManager(TenantQuota(max_sessions=1))
        state = open_session(manager, "a")
        manager.close_session("a", state.sid)
        open_session(manager, "a")

    def test_session_ids_are_tenant_scoped(self):
        manager = SessionManager()
        first = open_session(manager, "a")
        second = open_session(manager, "a")
        other = open_session(manager, "b")
        assert first.sid != second.sid
        assert other.sid.startswith("b-")


class TestSnapshotQuota:
    def test_snapshot_limit_counts_across_sessions(self, corpus):
        manager = SessionManager(TenantQuota(max_snapshots=2))
        first = open_session(manager, "a")
        second = open_session(manager, "a")
        for state in (first, second):
            manager.admit_snapshot(state)
            state.register_snapshot(corpus.pin())
        with pytest.raises(ServiceError) as info:
            manager.admit_snapshot(first)
        assert info.value.code == "quota"

    def test_close_releases_the_snapshots(self, corpus):
        manager = SessionManager()
        state = open_session(manager, "a")
        other = open_session(manager, "b")
        snapshot = corpus.pin()
        state.register_snapshot(snapshot)
        kept = corpus.pin()
        other.register_snapshot(kept)
        manager.close_session("a", state.sid)
        assert snapshot.released and not kept.released
        assert corpus.mvcc.active_count() == 1


class TestLookup:
    def test_unknown_session_has_its_own_code(self):
        manager = SessionManager()
        with pytest.raises(ServiceError) as info:
            manager.state("a", "a-99")
        assert info.value.code == "unknown_session"

    def test_unknown_snapshot_has_its_own_code(self, corpus):
        manager = SessionManager()
        state = open_session(manager, "a")
        snapshot = corpus.pin()
        snapshot_id = state.register_snapshot(snapshot)
        assert state.snapshot(snapshot_id) is snapshot
        with pytest.raises(ServiceError) as info:
            state.snapshot(f"{state.sid}.s99")
        assert info.value.code == "unknown_snapshot"

    def test_counts_report_per_tenant(self, corpus):
        manager = SessionManager()
        state = open_session(manager, "a")
        manager.admit_snapshot(state)
        state.register_snapshot(corpus.pin())
        assert manager.counts() == {"a": {"sessions": 1, "snapshots": 1}}
        assert len(manager.all_states()) == 1
