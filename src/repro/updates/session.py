"""Query sessions: encoded state held across an update stream.

A :class:`QuerySession` wraps one :class:`~repro.core.multimodel.
MultiModelQuery` and keeps every expensive per-query artifact alive
between updates:

* each relational input as a :class:`~repro.updates.relations.
  VersionedRelation` (a new ``Relation`` per version),
* each bound document behind a :class:`~repro.updates.documents.
  DocumentEditor` (the document's columnar view patched in place),
* each twig's answer as a :class:`~repro.updates.twigs.
  MaintainedTwigAnswer` (support-counted, edit-local deltas),
* the materialized query answer itself, maintained by classic delta
  rules for natural joins: a deleted input tuple kills exactly the
  result rows that restrict to it; an inserted tuple contributes the
  join of its singleton with the other (current) inputs.

``answer()`` therefore re-answers the query after a single-tuple or
single-subtree change in time proportional to the change's footprint
instead of the rebuild-from-scratch path (fresh encode + full join per
change); ``tests/updates/test_update_oracle.py`` holds the two equal.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.multimodel import MultiModelQuery
from repro.engine.planner import refresh_query_statistics, run_query
from repro.errors import UpdateError
from repro.mvcc import Snapshot, SnapshotManager
from repro.relational.relation import Relation
from repro.relational.schema import Schema, Value
from repro.updates.delta import DocumentDelta, RelationDelta
from repro.updates.documents import DocumentEditor
from repro.updates.relations import VersionedRelation
from repro.updates.twigs import MaintainedTwigAnswer, candidate_roots
from repro.xml.model import XMLNode


#: Share of a relational input its deltas may add up to (counted by the
#: feedback store, across calls) before the learned corrections stop
#: describing it and the input's generation advances.
FEEDBACK_CHURN_FRACTION = 0.25


class QuerySession:
    """One query held open — and kept answered — across updates."""

    def __init__(self, query: MultiModelQuery, *,
                 churn_threshold: float = 0.5,
                 feedback: "object | None" = None):
        self.query = query
        #: Optional :class:`~repro.engine.adaptive.FeedbackStore`: the
        #: session reports every delta to the store's drift ledger —
        #: deltas inherit the learned corrections until they add up to
        #: :data:`FEEDBACK_CHURN_FRACTION` of a relational input or a
        #: document edit forces a columnar rebuild; either invalidates
        #: them.
        self.feedback = feedback
        self.version = 0
        self.relations: dict[str, VersionedRelation] = {
            relation.name: VersionedRelation(relation)
            for relation in query.relations}
        # One editor per distinct document object (two twigs may bind
        # the same tree); answers are per twig binding.
        self.editors: dict[int, DocumentEditor] = {}
        self._editor_of: dict[str, DocumentEditor] = {}
        self.answers: dict[str, MaintainedTwigAnswer] = {}
        for binding in query.twigs:
            editor = self.editors.get(id(binding.document))
            if editor is None:
                editor = DocumentEditor(binding.document,
                                        churn_threshold=churn_threshold)
                self.editors[id(binding.document)] = editor
            self._editor_of[binding.name] = editor
            self.answers[binding.name] = MaintainedTwigAnswer(
                binding.document, binding.twig)
        self._attributes = query.attributes
        self._result_rows: set[tuple[Value, ...]] = set(
            run_query(query).rows)
        self._answer: Relation | None = None
        #: The MVCC layer over this session's inputs: hooks the
        #: editors' write path so a document version a snapshot pins is
        #: cloned before a write supersedes it.
        self.mvcc = SnapshotManager(self)

    # -- current inputs ----------------------------------------------------

    def _inputs(self) -> list[Relation]:
        """The relationalized inputs at their current versions."""
        return ([versioned.relation
                 for versioned in self.relations.values()]
                + [answer.relation() for answer in self.answers.values()])

    def _other_inputs(self, except_name: str) -> list[Relation]:
        return [relation for relation in self._inputs()
                if relation.name != except_name]

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
        self._propagate(name, versioned.relation.schema.attributes,
                        added=delta.inserted, removed=delta.deleted)
        if self.feedback is not None:
            self.feedback.note_input_update(
                self.query, name, size=size,
                moved=len(delta.inserted) + len(delta.deleted),
                fraction=FEEDBACK_CHURN_FRACTION)
        return delta

    # -- document updates --------------------------------------------------

    def _binding_editor(self, twig_name: str) -> DocumentEditor:
        editor = self._editor_of.get(twig_name)
        if editor is None:
            raise UpdateError(
                f"unknown twig input {twig_name!r}; "
                f"choose from {sorted(self._editor_of)!r}")
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

    def _document_edit(self, editor: DocumentEditor, *,
                       before_anchor: XMLNode,
                       before_subtree: bool,
                       after_anchor_fn,
                       after_subtree: bool,
                       edit_fn) -> DocumentDelta:
        """Run one edit with before/after answer snapshots per twig."""
        document = editor.document
        bindings = [binding for binding in self.query.twigs
                    if binding.document is document]
        before = {}
        for binding in bindings:
            answer = self.answers[binding.name]
            roots = candidate_roots(binding.twig, before_anchor,
                                    include_subtree=before_subtree)
            before[binding.name] = answer.snapshot(roots)
        rebuilds_before = editor.rebuilds
        delta = edit_fn()
        for binding in bindings:
            answer = self.answers[binding.name]
            anchor = after_anchor_fn()
            roots = candidate_roots(binding.twig, anchor,
                                    include_subtree=after_subtree)
            after = answer.snapshot(roots)
            added, removed = answer.apply_snapshots(
                before[binding.name], after)
            self._propagate(binding.name, answer.attributes,
                            added=added, removed=removed)
        if not bindings:
            self._bump()
        if self.feedback is not None:
            # A rebuild means the columnar view (and its statistics)
            # were reconstructed wholesale — churn; an in-place patch
            # inherits the corrections under the new document version.
            churn = editor.rebuilds > rebuilds_before
            for binding in bindings:
                self.feedback.note_input_update(self.query, binding.name,
                                                churn=churn)
        return delta

    def insert_subtree(self, twig_name: str, parent: XMLNode,
                       subtree: XMLNode, *,
                       index: int | None = None) -> DocumentDelta:
        """Insert *subtree* under *parent* in the named twig's document."""
        editor = self._binding_editor(twig_name)
        return self._document_edit(
            editor,
            # Pre-edit, only the ancestor chain exists; post-edit the
            # inserted subtree can host new embedding roots too.
            before_anchor=parent, before_subtree=False,
            after_anchor_fn=lambda: subtree, after_subtree=True,
            edit_fn=lambda: editor.insert_subtree(parent, subtree,
                                                  index=index))

    def delete_subtree(self, twig_name: str,
                       node: XMLNode) -> DocumentDelta:
        """Delete *node*'s subtree from the named twig's document."""
        editor = self._binding_editor(twig_name)
        parent = node.parent
        if parent is None:
            raise UpdateError("cannot delete the document root")
        return self._document_edit(
            editor,
            before_anchor=node, before_subtree=True,
            after_anchor_fn=lambda: parent, after_subtree=False,
            edit_fn=lambda: editor.delete_subtree(node))

    def change_value(self, twig_name: str, node: XMLNode,
                     text: str) -> DocumentDelta:
        """Change *node*'s text content in the named twig's document."""
        editor = self._binding_editor(twig_name)
        return self._document_edit(
            editor,
            # Only embeddings using *node* itself can change, and their
            # root images sit on its ancestor-or-self chain.
            before_anchor=node, before_subtree=False,
            after_anchor_fn=lambda: node, after_subtree=False,
            edit_fn=lambda: editor.change_value(node, text))

    # -- delta propagation -------------------------------------------------

    def _bump(self) -> None:
        self.version += 1
        self._answer = None
        refresh_query_statistics(self.query)

    def _propagate(self, input_name: str,
                   attributes: "tuple[str, ...]",
                   added: "Sequence[tuple[Value, ...]]",
                   removed: "Sequence[tuple[Value, ...]]") -> None:
        """Fold one input's row delta into the maintained answer: a
        removed tuple kills the result rows that restrict to it, an
        added one contributes its join with the other inputs."""
        if removed:
            positions = tuple(self._attributes.index(a)
                              for a in attributes)
            dead = set(map(tuple, removed))
            self._result_rows.difference_update(
                [row for row in self._result_rows
                 if tuple(row[p] for p in positions) in dead])
        if added:
            others = self._other_inputs(input_name)
            schema = Schema(attributes)
            for row in added:
                self._result_rows.update(
                    self._delta_join(
                        Relation(input_name, schema, [row]), others))
        self._bump()

    def _delta_join(self, seed: Relation,
                    others: "list[Relation]"
                    ) -> "set[tuple[Value, ...]]":
        """Rows the *seed* singleton contributes to the full answer:
        greedy connected fold of the remaining inputs, projected onto
        the query's attribute order."""
        result = seed
        remaining = list(others)
        while remaining:
            if not result:
                return set()
            bound = set(result.schema.attributes)
            pick = next(
                (relation for relation in remaining
                 if bound & set(relation.schema.attributes)),
                remaining[0])
            remaining.remove(pick)
            result = result.natural_join(pick)
        if not result:
            return set()
        positions = result.schema.positions(self._attributes)
        return {tuple(row[p] for p in positions) for row in result.rows}

    # -- answers -----------------------------------------------------------

    def answer(self) -> Relation:
        """The query's current answer (maintained, never recomputed)."""
        if self._answer is None:
            self._answer = Relation(self.query.name,
                                    Schema(self._attributes),
                                    self._result_rows)
        return self._answer

    def pin(self) -> Snapshot:
        """Pin a consistent snapshot of the current version vector.

        O(1): the snapshot borrows the live objects and the maintained
        answer; nothing is copied unless (until) a later update
        supersedes a version the snapshot still pins. Release it (or use
        it as a context manager) to let the MVCC layer reclaim.
        """
        return self.mvcc.pin()

    def _relationalized(self) -> MultiModelQuery:
        """The purely relational view: relations ⋈ twig answers. Each
        input is one stable object per version, so the engine's encoded-
        input cache re-encodes only the inputs an update changed."""
        return MultiModelQuery(self._inputs(), [], name=self.query.name)

    def run(self, algorithm: str | None = None) -> Relation:
        """Evaluate the relationalized view with a relational kernel
        (default: the planner's choice) through
        :func:`~repro.engine.planner.run_query`."""
        return run_query(self._relationalized(), algorithm=algorithm)

    def __repr__(self) -> str:
        return (f"QuerySession({self.query.name!r}, v{self.version}, "
                f"{len(self.relations)} relations, "
                f"{len(self.answers)} twigs)")
