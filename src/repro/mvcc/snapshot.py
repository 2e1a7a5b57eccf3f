"""Reader-facing snapshot handles over pinned versions.

A :class:`Snapshot` is produced by
:meth:`~repro.mvcc.manager.SnapshotManager.pin` (or the convenience
``QuerySession.pin()``). It holds what it reads: the session version,
the maintained answer at pin time, the relation objects current then,
and per document the :class:`~repro.mvcc.manager.DocumentVersion`
record that resolves to the live document or, once a write superseded
the pinned version, its frozen clone.

Reads never block writes and writes never corrupt reads: a relation
version is an immutable object the snapshot references, and a pinned
document is cloned before the first in-place patch supersedes it.
``release()`` (or leaving the ``with`` block) drops the pins and every
reference, so superseded versions die with their last reader.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SnapshotError
from repro.relational.relation import Relation

if TYPE_CHECKING:
    from repro.core.multimodel import MultiModelQuery
    from repro.mvcc.manager import DocumentVersion, SnapshotManager
    from repro.xml.model import XMLDocument


class Snapshot:
    """One consistent read view of a query session's inputs."""

    __slots__ = ("manager", "version", "relations", "documents", "_answer",
                 "released", "metadata")

    def __init__(self, manager: "SnapshotManager", version: int,
                 relations: dict[str, Relation],
                 documents: "dict[int, DocumentVersion]",
                 answer: Relation):
        self.manager = manager
        #: The session version at pin time.
        self.version = version
        #: relation name -> the Relation object current at pin time.
        self.relations = relations
        #: id(live document) -> its pinned version's record.
        self.documents = documents
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
        """One pinned relational input."""
        self._check_live()
        return self.relations[name]

    def document(self, ident: int) -> "XMLDocument":
        """One pinned document by ``id(document)`` (live or frozen clone)."""
        self._check_live()
        return self.documents[ident].read()

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
        """Fully evaluate the query at the pinned versions.

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
        """Drop the pins and the pinned objects; idempotent. A
        superseded version this was the last reader of dies now."""
        if self.released:
            return
        self.released = True
        self.manager.unpin(self)
        self.relations, self.documents, self._answer = {}, {}, None

    def __enter__(self) -> "Snapshot":
        self._check_live()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self.released else "pinned"
        return (f"Snapshot(v{self.version}, {state}, "
                f"{len(self.relations)} relations, "
                f"{len(self.documents)} documents)")
