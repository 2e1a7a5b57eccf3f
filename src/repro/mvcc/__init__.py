"""MVCC snapshot layer: consistent reads under concurrent updates.

The update subsystem already keeps implicit versions —
:class:`~repro.updates.relations.VersionedRelation` versions, the
documents' ``version`` counters, ``QuerySession``'s session version.
This package makes them readable: a :class:`Snapshot` pins the
session's current versions and keeps answering reads at them while
writers keep applying deltas.

A snapshot holds what it reads, and copies only what a write would
otherwise destroy:

* pinning is O(1) — a snapshot references the current relation objects
  and one record per document, and reads the live documents while the
  writer stays away;
* a superseded relation stays alive because the snapshot references the
  immutable :class:`~repro.relational.relation.Relation` object (with
  the artefacts it holds); a pinned document is frozen into one clone
  *before* the first in-place patch supersedes it;
* release drops the references, so a superseded version dies with its
  last reader, and the last pin on a document version drops its clone's
  columnar view (and all derived from it) at once.

:class:`SnapshotManager` keeps the pins of one
:class:`~repro.updates.session.QuerySession`, and :class:`Snapshot` is
the reader-facing handle. The multi-tenant query service
(:mod:`repro.service`) stands on this layer: every client read is a
snapshot read, so answers are never torn by the update stream.
"""

from repro.mvcc.manager import SnapshotManager
from repro.mvcc.snapshot import Snapshot

__all__ = ["Snapshot", "SnapshotManager"]
