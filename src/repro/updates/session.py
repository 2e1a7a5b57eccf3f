"""Query sessions: one query's answer kept across an update stream.

A :class:`QuerySession` wraps one :class:`~repro.core.multimodel.
MultiModelQuery` and keeps its inputs and its answer current:

* each relational input as a :class:`~repro.updates.relations.
  VersionedRelation` (a new ``Relation`` per version),
* each bound document behind a :class:`~repro.updates.documents.
  DocumentEditor` (the document's columnar view patched in place),
* the answer, maintained only through the engine, never by a second
  join: a twig is never turned into a relation. Three rules:

  - open runs :func:`~repro.engine.planner.run_query`;
  - a relational insert adds the rows of the query with the relation
    replaced by its inserted rows, ``Q[R := ΔR]`` (the standard delta
    rule: a relation occurs once in a natural join), prepared with a
    plan held per relation for the session's life; a relational delete
    drops the rows that restrict to a deleted tuple;
  - a document edit marks the answer stale, and the next
    :meth:`~QuerySession.answer` derives it again, once per document
    version, in the order the session's planner crowns (or
    ``run_query``'s own without one).

``tests/updates/test_update_oracle.py`` holds the maintained answer
equal to a rebuild from scratch after every write.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import itemgetter

from repro.core.multimodel import MultiModelQuery
from repro.engine.planner import (
    QueryPlan,
    plan_query,
    prepare,
    run_query,
)
from repro.errors import UpdateError
from repro.instrumentation import StageStats
from repro.mvcc import Snapshot, SnapshotManager
from repro.relational.relation import Relation
from repro.relational.schema import Value
from repro.updates.delta import DocumentDelta, RelationDelta
from repro.updates.documents import DocumentEditor
from repro.updates.relations import VersionedRelation
from repro.xml.model import XMLNode


#: Share of a relational input its deltas may add up to (counted by the
#: drift ledger, across calls) before the input's generation advances
#: and the planner races again.
FEEDBACK_CHURN_FRACTION = 0.25


class QuerySession:
    """One query held open — and kept answered — across updates."""

    def __init__(self, query: MultiModelQuery, *,
                 churn_threshold: float = 0.5,
                 planner: "object | None" = None):
        self.query = query
        #: Optional :class:`~repro.engine.adaptive.AdaptivePlanner`: it
        #: plans every re-derivation of the answer, and the session
        #: reports every delta to its store's drift ledger — deltas
        #: keep the raced plan until they add up to
        #: :data:`FEEDBACK_CHURN_FRACTION` of a relational input or a
        #: document edit forces a columnar rebuild; either advances the
        #: input's generation, and the planner races again.
        self.planner = planner
        self.version = 0
        self.relations: dict[str, VersionedRelation] = {
            relation.name: VersionedRelation(relation)
            for relation in query.relations}
        # One editor per distinct document object (two twigs may bind
        # the same tree).
        self.editors: dict[int, DocumentEditor] = {}
        #: Twig input name -> the editor of the document it binds.
        self.twig_editors: dict[str, DocumentEditor] = {}
        for binding in query.twigs:
            editor = self.editors.get(id(binding.document))
            if editor is None:
                editor = DocumentEditor(binding.document,
                                        churn_threshold=churn_threshold)
                self.editors[id(binding.document)] = editor
            self.twig_editors[binding.name] = editor
        #: The answer, one immutable object per version it changed at;
        #: None while a document edit has left it stale (:meth:`answer`
        #: derives it again).
        self._answer: Relation | None = run_query(query)
        #: Relation name -> (document versions, plan) of its delta query.
        self._delta_plans: dict[str, tuple[tuple[int, ...], QueryPlan]] = {}
        #: The MVCC layer over this session's inputs: hooks the
        #: editors' write path so a document version a snapshot pins is
        #: cloned before a write supersedes it.
        self.mvcc = SnapshotManager(self)

    # -- relational updates ------------------------------------------------

    def insert(self, relation_name: str,
               row: Sequence[Value]) -> RelationDelta:
        """Insert one tuple into a relational input."""
        return self._apply_relation(relation_name, inserted=[row])

    def delete(self, relation_name: str,
               row: Sequence[Value]) -> RelationDelta:
        """Delete one tuple from a relational input."""
        return self._apply_relation(relation_name, deleted=[row])

    def _apply_relation(self, name: str,
                        inserted: "Sequence[Sequence[Value]]" = (),
                        deleted: "Sequence[Sequence[Value]]" = ()
                        ) -> RelationDelta:
        versioned = self.relations.get(name)
        if versioned is None:
            raise UpdateError(
                f"unknown relation {name!r}; "
                f"choose from {sorted(self.relations)!r}")
        size = len(versioned.relation)
        delta = versioned.apply(inserted=inserted, deleted=deleted)
        # Swap the fresh Relation object into the live query.
        for position, relation in enumerate(self.query.relations):
            if relation.name == name:
                self.query.relations[position] = versioned.relation
        answer = self._answer
        if answer is not None and (delta.deleted or delta.inserted):
            rows = answer.rows
            schema = versioned.relation.schema
            if delta.deleted and not schema.arity:
                rows = frozenset()  # its one tuple, (), is gone
            elif delta.deleted:
                # An answer row restricts to exactly one tuple of *name*
                # (a bare value where the relation has one column).
                key = itemgetter(*answer.schema.positions(schema))
                dead = set(delta.deleted) if schema.arity > 1 \
                    else {value for value, in delta.deleted}
                rows = frozenset(row for row in rows if key(row) not in dead)
            if delta.inserted:
                rows = rows | self._delta_rows(versioned.relation,
                                               delta.inserted)
            self._answer = Relation.trusted(answer.name, answer.schema, rows)
        self._bump()
        if self.planner is not None:
            self.planner.store.note_input_update(
                self.query, name, size=size,
                moved=len(delta.inserted) + len(delta.deleted),
                fraction=FEEDBACK_CHURN_FRACTION)
        return delta

    def _delta_rows(self, relation: Relation,
                    inserted: "Sequence[tuple[Value, ...]]"
                    ) -> "frozenset[tuple[Value, ...]]":
        """The rows *inserted* into *relation* add to the answer: the
        query with the relation replaced by them, run by the engine
        over the other inputs at their current versions."""
        query = self.query
        delta = MultiModelQuery(
            [Relation(relation.name, relation.schema, inserted)
             if other.name == relation.name else other
             for other in query.relations],
            query.twigs, name=query.name)
        return prepare(delta, self._delta_plan(relation.name, delta)
                       ).run().rows

    def _delta_plan(self, name: str, delta: MultiModelQuery) -> QueryPlan:
        """The plan of *name*'s delta queries. Its order and algorithm
        are held for the session's life: a plan is correct on any
        state. What a plan reads off the documents (its validation
        points and tested attribute) is derived again once per
        document version."""
        versions = tuple(editor.document.version
                         for editor in self.editors.values())
        held = self._delta_plans.get(name)
        if held is not None and held[0] == versions:
            return held[1]
        plan = plan_query(delta) if held is None else plan_query(
            delta, order=held[1].order, algorithm=held[1].algorithm)
        self._delta_plans[name] = (versions, plan)
        return plan

    # -- document updates --------------------------------------------------

    def _binding_editor(self, twig_name: str) -> DocumentEditor:
        editor = self.twig_editors.get(twig_name)
        if editor is None:
            raise UpdateError(
                f"unknown twig input {twig_name!r}; "
                f"choose from {sorted(self.twig_editors)!r}")
        return editor

    def document_of(self, twig_name: str):
        """The :class:`~repro.xml.model.XMLDocument` bound to the named
        twig input.

        The query service resolves wire-level node addresses (region
        ``start`` labels) against this document before routing an edit
        through :meth:`insert_subtree` / :meth:`delete_subtree` /
        :meth:`change_value`.
        """
        return self._binding_editor(twig_name).document

    def _document_edit(self, editor: DocumentEditor,
                       edit_fn) -> DocumentDelta:
        """Run one edit; the answer goes stale until the next read."""
        rebuilds = editor.rebuilds
        delta = edit_fn()
        self._answer = None
        self._bump()
        if self.planner is not None:
            # A rebuild means the columnar view (and its statistics)
            # were reconstructed wholesale — churn; an in-place patch
            # keeps the input's generation.
            churn = editor.rebuilds > rebuilds
            for binding in self.query.twigs:
                if binding.document is editor.document:
                    self.planner.store.note_input_update(
                        self.query, binding.name, churn=churn)
        return delta

    def insert_subtree(self, twig_name: str, parent: XMLNode,
                       subtree: XMLNode, *,
                       index: int | None = None) -> DocumentDelta:
        """Insert *subtree* under *parent* in the named twig's document."""
        editor = self._binding_editor(twig_name)
        return self._document_edit(
            editor, lambda: editor.insert_subtree(parent, subtree,
                                                  index=index))

    def delete_subtree(self, twig_name: str,
                       node: XMLNode) -> DocumentDelta:
        """Delete *node*'s subtree from the named twig's document."""
        editor = self._binding_editor(twig_name)
        if node.parent is None:
            raise UpdateError("cannot delete the document root")
        return self._document_edit(
            editor, lambda: editor.delete_subtree(node))

    def change_value(self, twig_name: str, node: XMLNode,
                     text: str) -> DocumentDelta:
        """Change *node*'s text content in the named twig's document."""
        editor = self._binding_editor(twig_name)
        return self._document_edit(
            editor, lambda: editor.change_value(node, text))

    def _bump(self) -> None:
        self.version += 1

    # -- answers -----------------------------------------------------------

    def answer(self) -> Relation:
        """The query's current answer: maintained, or derived again
        after a document edit (once per version)."""
        if self._answer is None:
            self._answer = self._derive()
        return self._answer

    def _derive(self) -> Relation:
        """The answer from scratch: :func:`run_query`, with a planner in
        the order and algorithm it crowns, those a served evaluate runs,
        so the two share the encoded inputs of the version; those it
        built or reused are counted in the planner's store like an
        evaluate's."""
        if self.planner is None:
            return run_query(self.query)
        winner = self.planner.racer.race(self.query).winner
        stats = StageStats()
        relation = run_query(self.query, order=winner.order,
                             algorithm=winner.algorithm, stats=stats)
        self.planner.store.count_inputs(stats)
        return relation

    def pin(self) -> Snapshot:
        """Pin a consistent snapshot of the current version vector.

        O(1) but for a stale answer, derived first: the snapshot
        borrows the live objects and the answer; nothing is copied
        unless (until) a later update supersedes a version the snapshot
        still pins. Release it (or use it as a context manager) to let
        the MVCC layer reclaim.
        """
        return self.mvcc.pin()

    def __repr__(self) -> str:
        return (f"QuerySession({self.query.name!r}, v{self.version}, "
                f"{len(self.relations)} relations, "
                f"{len(self.twig_editors)} twigs)")
