"""The incremental update subsystem.

Accepts tuple inserts/deletes on relations and subtree insert/delete /
value-change edits on XML documents, and propagates *deltas* through
the layers built batch-style: new relation versions, columnar
document views patched in place, planner estimates, twig answers, and
the materialized query result itself. See ``docs/updates.md``.

Entry points:

* :class:`~repro.updates.session.QuerySession` — hold a
  :class:`~repro.core.multimodel.MultiModelQuery` open across an update
  stream and re-answer it incrementally;
* :class:`~repro.updates.relations.VersionedRelation` — one relation
  under updates (one ``Relation`` per version);
* :class:`~repro.updates.documents.DocumentEditor` — one document under
  updates (patched labels and view, churn-bounded).
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
