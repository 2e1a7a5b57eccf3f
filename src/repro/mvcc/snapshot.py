"""Reader-facing snapshot handles over a pinned version vector.

A :class:`Snapshot` is produced by
:meth:`~repro.mvcc.manager.SnapshotManager.pin` (or the convenience
``QuerySession.pin()``). It records the session version, the per-input
version vector, and the maintained answer at pin time; every read then
resolves each input to either the live object (if the writer has not
moved past the pinned version) or the frozen artifact the write path
preserved in the input's :class:`~repro.mvcc.chain.VersionChain`.

Reads never block writes and writes never corrupt reads: relations are
immutable objects retained per version, and a pinned document is cloned
before the first in-place patch supersedes it. ``release()`` (or leaving
the ``with`` block) drops the pins and lets the chains reclaim.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SnapshotError
from repro.relational.relation import Relation

if TYPE_CHECKING:
    from repro.core.multimodel import MultiModelQuery
    from repro.mvcc.manager import SnapshotManager
    from repro.xml.model import XMLDocument


class Snapshot:
    """One consistent read view of a query session's inputs."""

    __slots__ = ("manager", "version", "relation_versions",
                 "document_versions", "_answer", "released", "metadata")

    def __init__(self, manager: "SnapshotManager", version: int,
                 relation_versions: dict[str, int],
                 document_versions: dict[int, int],
                 answer: Relation):
        self.manager = manager
        #: The session version at pin time.
        self.version = version
        #: relation name -> pinned :class:`VersionedRelation` version.
        self.relation_versions = dict(relation_versions)
        #: id(document) -> pinned document (reindex) version.
        self.document_versions = dict(document_versions)
        self._answer = answer
        self.released = False
        #: Free-form annotations (the service stores its batch sequence
        #: number here so clients can correlate reads with the oracle).
        self.metadata: dict[str, object] = {}

    # -- guarded access ----------------------------------------------------

    def _check_live(self) -> None:
        if self.released:
            raise SnapshotError(
                f"snapshot at session version {self.version} was released; "
                "pin a fresh one")

    def answer(self) -> Relation:
        """The maintained query answer at the pinned version (O(1))."""
        self._check_live()
        return self._answer

    def relation(self, name: str) -> Relation:
        """One pinned relational input (live or retained object)."""
        self._check_live()
        return self.manager.relation_at(name, self.relation_versions[name])

    def document(self, ident: int) -> "XMLDocument":
        """One pinned document by ``id(document)`` (live or frozen clone)."""
        self._check_live()
        return self.manager.document_at(ident,
                                        self.document_versions[ident])

    # -- evaluation --------------------------------------------------------

    def query(self) -> "MultiModelQuery":
        """The session's query re-bound to the pinned inputs.

        Built fresh per call (cheap — no data is copied) so a document
        that was frozen *after* a previous call resolves to its clone,
        never to the patched live tree.
        """
        self._check_live()
        return self.manager.query_at(self)

    def run(self, *, algorithm: str | None = None,
            order: "str | tuple[str, ...] | None" = None,
            workers: int = 0) -> Relation:
        """Fully evaluate the query at the pinned version vector.

        Plans and runs through :func:`repro.engine.planner.run_query`
        over the pinned inputs — byte-identical to a rebuild-from-scratch
        evaluation at this snapshot's versions, regardless of how many
        updates have landed since the pin.
        """
        from repro.engine.planner import run_query

        return run_query(self.query(), algorithm=algorithm, order=order,
                         workers=workers)

    # -- lifecycle ---------------------------------------------------------

    def detach(self) -> None:
        """Force-freeze every still-live pinned document into its clone:
        a full tree copy, called only by the MVCC tests and the e2e
        harness's traced library replay, never by a served read."""
        self._check_live()
        self.manager.detach(self)

    def release(self) -> None:
        """Drop the pins; idempotent. Retained artifacts whose last pin
        this was are reclaimed (watermark advance)."""
        if self.released:
            return
        self.released = True
        self.manager.unpin(self)

    def __enter__(self) -> "Snapshot":
        self._check_live()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self.released else "pinned"
        return (f"Snapshot(v{self.version}, {state}, "
                f"{len(self.relation_versions)} relations, "
                f"{len(self.document_versions)} documents)")
