"""The incremental update subsystem.

Accepts tuple inserts/deletes on relations and subtree insert/delete /
value-change edits on XML documents, and propagates *deltas* through
the layers built batch-style: new relation versions, columnar
document views patched in place, planner estimates, and the query's
answer, kept through the engine alone: a relational insert runs the
delta query ``Q[R := ΔR]``, a delete drops the rows it supported, and
a document edit has the next read derive the answer again. See
``docs/updates.md``.

Entry points:

* :class:`~repro.updates.session.QuerySession` — hold a
  :class:`~repro.core.multimodel.MultiModelQuery` open across an update
  stream and keep it answered;
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

__all__ = [
    "DocumentDelta",
    "DocumentEditor",
    "QuerySession",
    "RelationDelta",
    "SUBTREE_DELETE",
    "SUBTREE_INSERT",
    "VALUE_CHANGE",
    "VersionedRelation",
]
