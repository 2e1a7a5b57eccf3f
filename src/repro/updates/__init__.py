"""The incremental update subsystem.

Accepts tuple inserts/deletes on relations and subtree insert/delete /
value-change edits on XML documents, and propagates *deltas* through
every layer that PRs 1-2 built batch-style: relation statistics,
columnar document views and document statistics, planner caches, twig
answers, and the materialized query result itself. See
``docs/updates.md``.

Entry points:

* :class:`~repro.updates.session.QuerySession` — hold a
  :class:`~repro.core.multimodel.MultiModelQuery` open across an update
  stream and re-answer it incrementally;
* :class:`~repro.updates.relations.VersionedRelation` — one relation
  under updates (delta log + installed stats);
* :class:`~repro.updates.documents.DocumentEditor` — one document under
  updates (patched labels/views/stats, churn-bounded).
"""

from repro.updates.delta import (
    SUBTREE_DELETE,
    SUBTREE_INSERT,
    VALUE_CHANGE,
    DocumentDelta,
    RelationDelta,
)
from repro.updates.documents import DocumentEditor
from repro.updates.relations import VersionedRelation
from repro.updates.session import QuerySession
from repro.updates.twigs import MaintainedTwigAnswer

__all__ = [
    "DocumentDelta",
    "DocumentEditor",
    "MaintainedTwigAnswer",
    "QuerySession",
    "RelationDelta",
    "SUBTREE_DELETE",
    "SUBTREE_INSERT",
    "VALUE_CHANGE",
    "VersionedRelation",
]
