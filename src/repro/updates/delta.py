"""Delta records: what one write of the update layer changed.

Every mutation accepted by the update subsystem returns one immutable
delta — single tuples on the relational side, single subtrees or value
edits on the XML side. A delta says *what* changed, so downstream state
(the maintained answer, the planner's drift ledger) refreshes from the
change instead of rescanning the input, and it carries the version
stamp that ties the change to the input state it produced. Nothing
keeps the deltas: the caller that applied a write owns its record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.schema import Value


@dataclass(frozen=True)
class RelationDelta:
    """One batch of tuple changes applied to a named relation.

    ``version`` is the version of the relation *after* the batch;
    ``inserted``/``deleted`` hold only rows that actually changed
    membership (inserting a present row or deleting an absent one is
    filtered out before the record is built).
    """

    relation: str
    version: int
    inserted: tuple[tuple[Value, ...], ...] = ()
    deleted: tuple[tuple[Value, ...], ...] = ()


#: Document delta kinds.
SUBTREE_INSERT = "subtree_insert"
SUBTREE_DELETE = "subtree_delete"
VALUE_CHANGE = "value_change"


@dataclass(frozen=True)
class DocumentDelta:
    """One structural or value edit applied to a document.

    ``version`` is the document version after the edit; ``nodes`` is the
    number of tree nodes the edit touched (the churn unit that drives the
    rebuild fallback); ``start`` locates the edit by the pre-edit region
    label of the subtree root / edited node; ``rebuilt`` records whether
    the edit was applied as an in-place patch (False) or fell back to a
    full reindex + view rebuild (True).
    """

    kind: str
    version: int
    nodes: int
    start: int
    rebuilt: bool = False
