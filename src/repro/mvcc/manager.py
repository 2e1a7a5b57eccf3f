"""The snapshot manager: one session's pins and document clones.

A :class:`SnapshotManager` is owned by a
:class:`~repro.updates.session.QuerySession`. A snapshot holds what it
reads: the :class:`~repro.relational.relation.Relation` objects current
at pin time, and one :class:`DocumentVersion` per distinct document.

A relation version is an immutable object, so the snapshot's reference
keeps a superseded version (and the artefacts it holds) alive until
release, and nothing else does. A document is patched in place, so the
manager keeps one :class:`DocumentVersion` record per document for its
current version, hooked into the input's
:class:`~repro.updates.documents.DocumentEditor` ``on_before_change``:
the first write over a pinned version freezes it into the record's one
clone, shared by every pin on that version. The last release drops the
clone's view at once (the clone's tree is cyclic, so only the collector
frees the tree itself).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.errors import SnapshotError
from repro.mvcc.snapshot import Snapshot
from repro.xml.model import XMLDocument

if TYPE_CHECKING:
    from repro.core.multimodel import MultiModelQuery
    from repro.updates.session import QuerySession


class DocumentVersion:
    """One document version's pin count and, once a write superseded it
    while pinned (or a snapshot detached), its frozen clone."""

    __slots__ = ("document", "version", "pins", "clone")

    def __init__(self, document: XMLDocument):
        self.document = document
        self.version = document.version
        self.pins = 0
        self.clone: XMLDocument | None = None

    def read(self) -> XMLDocument:
        """The document serving reads at this version."""
        if self.clone is not None:
            return self.clone
        if self.document.version != self.version:
            raise SnapshotError(
                f"document {self.document.root.tag!r} at version "
                f"{self.version} was never preserved (current version "
                f"{self.document.version}); writes must go through the "
                "owning session")
        return self.document

    def freeze(self) -> None:
        """Clone the live document, still at this version."""
        self.clone = XMLDocument(self.document.root.copy())

    def unpin(self) -> None:
        """Drop one pin; the last one drops the clone and its view."""
        self.pins -= 1
        if not self.pins and self.clone is not None:
            self.clone.view = None
            self.clone = None


class SnapshotManager:
    """Pins versions and freezes pinned documents for one query session."""

    def __init__(self, session: "QuerySession"):
        # Weak, in the planner-cache style: the manager must never keep
        # a dropped session (and its documents) alive through itself.
        self._session_ref = weakref.ref(session)
        self._name = session.query.name
        self._versioned = dict(session.relations)
        self._bindings = list(session.query.twigs)
        #: id(document) -> the record of its current version.
        self._current: dict[int, DocumentVersion] = {}
        for editor in session.editors.values():
            self._current[id(editor.document)] = DocumentVersion(
                editor.document)
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
        """Pin the session's current versions; O(1), no copies."""
        session = self.session
        documents = {}
        for ident, record in self._current.items():
            if record.version != record.document.version:
                record = self._current[ident] = DocumentVersion(
                    record.document)
            record.pins += 1
            documents[ident] = record
        snapshot = Snapshot(
            self, session.version,
            {name: versioned.relation
             for name, versioned in self._versioned.items()},
            documents, session.answer())
        self._active[id(snapshot)] = snapshot
        return snapshot

    def unpin(self, snapshot: Snapshot) -> None:
        """Release a snapshot's pins (called by ``Snapshot.release``)."""
        if self._active.pop(id(snapshot), None) is None:
            return
        for record in snapshot.documents.values():
            record.unpin()

    def active_count(self) -> int:
        """The number of live (unreleased) snapshots."""
        return len(self._active)

    def watermark(self) -> int | None:
        """The oldest pinned session version (None with no snapshots)."""
        if not self._active:
            return None
        return min(snapshot.version for snapshot in self._active.values())

    def stats(self) -> dict[str, "int | None"]:
        """Live pins, the watermark, and the superseded versions kept
        only because a live snapshot reads them: document clones and
        relation objects no longer current."""
        snapshots = self._active.values()
        current = {id(versioned.relation)
                   for versioned in self._versioned.values()}
        relations = {id(relation) for snapshot in snapshots
                     for relation in snapshot.relations.values()}
        clones = {id(record) for snapshot in snapshots
                  for record in snapshot.documents.values()
                  if record.clone is not None}
        return {"pins": len(self._active), "watermark": self.watermark(),
                "retained_documents": len(clones),
                "retained_relations": len(relations - current)}

    # -- the write-path hook -----------------------------------------------

    def before_document_write(self, document: XMLDocument) -> None:
        """Freeze *document*'s current version if a snapshot pins it.

        Wired into the editors' ``on_before_change``: runs before any
        label patch or array splice mutates the tree, so the clone is
        taken from fully consistent state. At most one clone per
        (document, version): later writes find it made.
        """
        record = self._current.get(id(document))
        if record is not None and record.pins and record.clone is None:
            record.freeze()

    # -- snapshot resolution -----------------------------------------------

    def query_at(self, snapshot: Snapshot) -> "MultiModelQuery":
        """The session's query re-bound to *snapshot*'s pinned inputs."""
        from repro.core.multimodel import MultiModelQuery, TwigBinding

        twigs = [TwigBinding(binding.twig,
                             snapshot.documents[id(binding.document)].read())
                 for binding in self._bindings]
        return MultiModelQuery(list(snapshot.relations.values()), twigs,
                               name=self._name)

    def detach(self, snapshot: Snapshot) -> None:
        """Freeze every still-live pinned document of *snapshot* now.

        After this, no read of the snapshot touches an object the writer
        will mutate. A tree copy per document: the service never calls
        it, only the MVCC tests and the e2e harness's library replay.
        """
        for record in snapshot.documents.values():
            if record.clone is None:
                record.read()  # refuses a version moved unpreserved
                record.freeze()

    def __repr__(self) -> str:
        return (f"SnapshotManager({self._name!r}, "
                f"{len(self._active)} snapshots, "
                f"{len(self._versioned)} relations, "
                f"{len(self._current)} documents)")
