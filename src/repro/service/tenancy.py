"""Per-tenant sessions, quotas and accounting.

Tenants are named by the client (the ``tenant`` request field); each
tenant owns its sessions — named sets of pins on the service's one
corpus state — and is accounted against a :class:`TenantQuota`.
Exceeding a quota raises a :class:`~repro.errors.ServiceError` with
code ``quota`` — the service never silently evicts one tenant's pinned
state to admit another's, because a pinned snapshot is a consistency
promise, not a cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ServiceError

if TYPE_CHECKING:
    from repro.mvcc import Snapshot


@dataclass(frozen=True)
class TenantQuota:
    """Upper bounds applied to every tenant of one service."""

    #: Concurrently open sessions per tenant.
    max_sessions: int = 8
    #: Concurrently pinned (unreleased) snapshots per tenant.
    max_snapshots: int = 32


@dataclass
class SessionState:
    """One client session: the snapshots it pinned and has not
    released. It holds no corpus state — that is the service's."""

    sid: str
    tenant: str
    #: snapshot id -> live (unreleased) pinned snapshot.
    snapshots: dict[str, "Snapshot"] = field(default_factory=dict)
    _snapshot_counter: int = 0

    def register_snapshot(self, snapshot: "Snapshot") -> str:
        """Track a freshly pinned snapshot; returns its wire id."""
        self._snapshot_counter += 1
        snapshot_id = f"{self.sid}.s{self._snapshot_counter}"
        self.snapshots[snapshot_id] = snapshot
        return snapshot_id

    def snapshot(self, snapshot_id: str) -> "Snapshot":
        """The live snapshot *snapshot_id* (ServiceError
        ``unknown_snapshot`` if absent)."""
        snapshot = self.snapshots.get(snapshot_id)
        if snapshot is None:
            raise ServiceError(
                "unknown_snapshot",
                f"session {self.sid!r} has no snapshot {snapshot_id!r}")
        return snapshot

    def release_all(self) -> None:
        """Release every live snapshot (session teardown)."""
        for snapshot in self.snapshots.values():
            snapshot.release()
        self.snapshots.clear()


class Tenant:
    """One tenant's sessions."""

    def __init__(self, name: str, quota: TenantQuota):
        self.name = name
        self.quota = quota
        self.sessions: dict[str, SessionState] = {}
        self._session_counter = 0

    def next_session_id(self) -> str:
        """The next wire session id for this tenant (``name-N``)."""
        self._session_counter += 1
        return f"{self.name}-{self._session_counter}"

    def snapshot_count(self) -> int:
        """Live snapshots across all of this tenant's sessions."""
        return sum(len(state.snapshots)
                   for state in self.sessions.values())


class SessionManager:
    """All tenants of one service, with quota checks at every border."""

    def __init__(self, quota: TenantQuota | None = None):
        self.quota = quota or TenantQuota()
        self.tenants: dict[str, Tenant] = {}

    def tenant(self, name: str) -> Tenant:
        """The named tenant (created on first use)."""
        tenant = self.tenants.get(name)
        if tenant is None:
            tenant = self.tenants[name] = Tenant(name, self.quota)
        return tenant

    # -- quota-checked transitions ----------------------------------------

    def admit_session(self, tenant_name: str) -> SessionState:
        """Open a session for *tenant_name* (ServiceError ``quota`` when
        the tenant is at its session limit)."""
        tenant = self.tenant(tenant_name)
        if len(tenant.sessions) >= tenant.quota.max_sessions:
            raise ServiceError(
                "quota",
                f"tenant {tenant_name!r} is at its session limit "
                f"({tenant.quota.max_sessions}); close a session first")
        state = SessionState(sid=tenant.next_session_id(),
                             tenant=tenant_name)
        tenant.sessions[state.sid] = state
        return state

    def admit_snapshot(self, state: SessionState) -> None:
        """Check the snapshot quota before a ``pin`` lands."""
        tenant = self.tenant(state.tenant)
        if tenant.snapshot_count() >= tenant.quota.max_snapshots:
            raise ServiceError(
                "quota",
                f"tenant {state.tenant!r} is at its snapshot limit "
                f"({tenant.quota.max_snapshots}); release snapshots first")

    # -- lookup / teardown -------------------------------------------------

    def state(self, tenant_name: str, sid: str) -> SessionState:
        """The named session (ServiceError ``unknown_session`` if absent)."""
        state = self.tenant(tenant_name).sessions.get(sid)
        if state is None:
            raise ServiceError(
                "unknown_session",
                f"tenant {tenant_name!r} has no session {sid!r}")
        return state

    def close_session(self, tenant_name: str, sid: str) -> None:
        """Release a session's snapshots and drop it."""
        state = self.state(tenant_name, sid)
        state.release_all()
        del self.tenant(tenant_name).sessions[state.sid]

    def all_states(self) -> list[SessionState]:
        """Every open session across all tenants."""
        return [state for tenant in self.tenants.values()
                for state in tenant.sessions.values()]

    def counts(self) -> dict[str, dict[str, int]]:
        """Per-tenant accounting for the ``stats`` endpoint."""
        return {name: {"sessions": len(tenant.sessions),
                       "snapshots": tenant.snapshot_count()}
                for name, tenant in self.tenants.items()}
