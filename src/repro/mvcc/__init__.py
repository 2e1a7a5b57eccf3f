"""MVCC snapshot layer: consistent reads under concurrent updates.

The update subsystem already maintains implicit versions everywhere —
:class:`~repro.updates.relations.VersionedRelation` versions, the
documents' ``version`` counters, ``QuerySession``'s session version.
This package makes that versioning explicit and readable: a
:class:`Snapshot` pins one consistent ``(relation versions, document
versions)`` vector and keeps answering reads at that vector while
writers keep applying deltas.

The machinery is copy-on-write at the version granularity:

* pinning is O(1) — a snapshot records versions and borrows the live
  objects; nothing is copied while the writer stays away;
* the first write over a *pinned* version preserves it — the superseded
  immutable :class:`~repro.relational.relation.Relation` object is
  retained (with the artefacts it holds), and a pinned document is
  frozen into a clone *before* the in-place columnar patch lands;
* reclamation is watermark-driven — when the last pin on a version is
  released, its retained artifacts are dropped, a clone's columnar view
  (and all derived from it) at once.

:class:`VersionChain` holds the per-resource pin counts and retained
artifacts, :class:`SnapshotManager` coordinates the chains of one
:class:`~repro.updates.session.QuerySession`, and :class:`Snapshot` is
the reader-facing handle. The multi-tenant query service
(:mod:`repro.service`) stands on this layer: every client read is a
snapshot read, so answers are never torn by the update stream.
"""

from repro.mvcc.chain import VersionChain
from repro.mvcc.manager import SnapshotManager
from repro.mvcc.snapshot import Snapshot

__all__ = ["Snapshot", "SnapshotManager", "VersionChain"]
