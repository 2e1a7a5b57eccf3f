"""The snapshot manager: one session's version chains, coordinated.

A :class:`SnapshotManager` is owned by a
:class:`~repro.updates.session.QuerySession`. At construction it wires
one :class:`~repro.mvcc.chain.VersionChain` per relational input (hooked
into the input's :class:`~repro.updates.relations.VersionedRelation`, so
the write path retains superseded pinned relations) and one per distinct
document (hooked into the input's
:class:`~repro.updates.documents.DocumentEditor` ``on_before_change``,
so a pinned document is frozen into a clone *before* the first in-place
patch supersedes it).

Pinning captures the maintained answer plus the current version vector
in O(1); the copy cost is paid lazily, by the writer, only for versions
that are both pinned and superseded. Reclamation is deterministic:
releasing the last pin on a version drops its retained artifacts. A
relation is acyclic, so reference counting frees it with everything
derived from it; a clone's tree is cyclic, so its columnar view (with
the twig inputs and stats derived from it) is dropped explicitly.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.errors import SnapshotError
from repro.mvcc.chain import VersionChain
from repro.mvcc.snapshot import Snapshot
from repro.relational.relation import Relation
from repro.xml.model import XMLDocument

if TYPE_CHECKING:
    from repro.core.multimodel import MultiModelQuery
    from repro.updates.session import QuerySession


def _reclaim_clone(clone: XMLDocument) -> None:
    """Chain hook: drop a frozen clone's view. The tree is cyclic, so
    only the collector frees the clone; its view goes now."""
    clone.view = None


class SnapshotManager:
    """Pins, preserves and reclaims versions for one query session."""

    def __init__(self, session: "QuerySession"):
        # Weak, in the planner-cache style: the manager must never keep
        # a dropped session (and its documents) alive through itself.
        self._session_ref = weakref.ref(session)
        self._name = session.query.name
        self._relation_names = [r.name for r in session.query.relations]
        self._versioned = dict(session.relations)
        self.relation_chains: dict[str, VersionChain] = {}
        for name, versioned in self._versioned.items():
            chain = VersionChain(f"relation:{name}")
            versioned.chain = chain
            self.relation_chains[name] = chain
        self._bindings = list(session.query.twigs)
        self._documents: dict[int, XMLDocument] = {}
        self.document_chains: dict[int, VersionChain] = {}
        for editor in session.editors.values():
            ident = id(editor.document)
            self._documents[ident] = editor.document
            self.document_chains[ident] = VersionChain(
                f"document:{editor.document.root.tag}",
                reclaim=_reclaim_clone)
            editor.on_before_change = self.before_document_write
        self._active: dict[int, Snapshot] = {}

    @property
    def session(self) -> "QuerySession":
        """The live session behind this manager (SnapshotError if dropped)."""
        session = self._session_ref()
        if session is None:
            raise SnapshotError(
                "the session behind this snapshot manager has been released")
        return session

    # -- pinning -----------------------------------------------------------

    def pin(self) -> Snapshot:
        """Pin the session's current version vector; O(1), no copies."""
        session = self.session
        answer = session.answer()
        relation_versions = {name: versioned.version
                             for name, versioned in self._versioned.items()}
        document_versions = {ident: document.version
                             for ident, document in self._documents.items()}
        snapshot = Snapshot(self, session.version, relation_versions,
                            document_versions, answer)
        for name, version in relation_versions.items():
            self.relation_chains[name].pin(version)
        for ident, version in document_versions.items():
            self.document_chains[ident].pin(version)
        self._active[id(snapshot)] = snapshot
        return snapshot

    def unpin(self, snapshot: Snapshot) -> None:
        """Release a snapshot's pins (called by ``Snapshot.release``)."""
        if self._active.pop(id(snapshot), None) is None:
            return
        for name, version in snapshot.relation_versions.items():
            self.relation_chains[name].release(version)
        for ident, version in snapshot.document_versions.items():
            self.document_chains[ident].release(version)

    def active_count(self) -> int:
        """The number of live (unreleased) snapshots."""
        return len(self._active)

    def watermark(self) -> int | None:
        """The oldest pinned session version (None with no snapshots)."""
        if not self._active:
            return None
        return min(snapshot.version for snapshot in self._active.values())

    # -- write-path hooks --------------------------------------------------

    def before_document_write(self, document: XMLDocument) -> None:
        """Preserve *document*'s current version if a snapshot pins it.

        Wired into the editors' ``on_before_change``: runs before any
        label patch, array splice, or rebuild fallback mutates the tree,
        so the frozen clone is taken from fully consistent state. At
        most one clone per (document, version) — later writes at the
        same (already superseded) version find the artifact retained.
        """
        ident = id(document)
        chain = self.document_chains.get(ident)
        if chain is None:
            return
        version = document.version
        if chain.pinned(version) and chain.artifact(version) is None:
            self._freeze_document(ident)

    def _freeze_document(self, ident: int) -> XMLDocument:
        """Clone the live document and retain it at its current version."""
        live = self._documents[ident]
        clone = XMLDocument(live.root.copy())
        return self.document_chains[ident].retain(live.version, clone)

    # -- snapshot resolution -----------------------------------------------

    def relation_at(self, name: str, version: int) -> Relation:
        """The relation object serving reads of *name* at *version*."""
        versioned = self._versioned[name]
        if versioned.version == version:
            return versioned.relation
        artifact = self.relation_chains[name].artifact(version)
        if artifact is None:
            raise SnapshotError(
                f"relation {name!r} at version {version} was never "
                f"preserved (current version {versioned.version}); "
                "writes must go through the owning session")
        return artifact

    def document_at(self, ident: int, version: int) -> XMLDocument:
        """The document object serving reads of *ident* at *version*."""
        artifact = self.document_chains[ident].artifact(version)
        if artifact is not None:
            return artifact
        live = self._documents[ident]
        if live.version == version:
            return live
        raise SnapshotError(
            f"document {self.document_chains[ident].label!r} at version "
            f"{version} was never preserved (current version "
            f"{live.version}); writes must go through the owning session")

    def query_at(self, snapshot: Snapshot) -> "MultiModelQuery":
        """The session's query re-bound to *snapshot*'s pinned inputs."""
        from repro.core.multimodel import MultiModelQuery, TwigBinding

        relations = [
            self.relation_at(name, snapshot.relation_versions[name])
            for name in self._relation_names]
        twigs = [
            TwigBinding(binding.twig,
                        self.document_at(id(binding.document),
                                         snapshot.document_versions[
                                             id(binding.document)]))
            for binding in self._bindings]
        return MultiModelQuery(relations, twigs, name=self._name)

    # -- detachment --------------------------------------------------------

    def detach(self, snapshot: Snapshot) -> None:
        """Freeze every still-live pinned document of *snapshot* now.

        After this, no read of the snapshot touches an object the writer
        will mutate. A tree copy per document: the service never calls
        it, only the MVCC tests and the e2e harness's library replay.
        """
        for ident, version in snapshot.document_versions.items():
            chain = self.document_chains[ident]
            if chain.artifact(version) is not None:
                continue
            live = self._documents[ident]
            if live.version != version:
                raise SnapshotError(
                    f"document {chain.label!r} moved to version "
                    f"{live.version} without preserving pinned version "
                    f"{version}")
            self._freeze_document(ident)

    def __repr__(self) -> str:
        return (f"SnapshotManager({self._name!r}, "
                f"{len(self._active)} snapshots, "
                f"{len(self.relation_chains)} relations, "
                f"{len(self.document_chains)} documents)")
