"""Version-stamped relations under tuple updates.

A :class:`VersionedRelation` owns the current :class:`Relation` object
for one input and accepts single-tuple inserts/deletes (or batches).
Each applied batch produces a fresh immutable ``Relation`` (built by the
delta constructor, so only changed rows are validated) and returns a
:class:`~repro.updates.delta.RelationDelta`. What the engine
derives from a version (statistics, dictionaries, encoded inputs) lives
on that ``Relation`` object
(:func:`repro.engine.encoded.relation_artefacts`) and dies with it,
but for its column dictionaries: the next version inherits them
(:func:`repro.engine.encoded.inherit_dictionaries`). A superseded
version lives on only while a reader, such as a pinned
:class:`~repro.mvcc.snapshot.Snapshot`, references it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.engine.encoded import inherit_dictionaries
from repro.errors import UpdateError
from repro.relational.relation import Relation
from repro.relational.schema import Value
from repro.updates.delta import RelationDelta


class VersionedRelation:
    """One relational input under a stream of tuple updates."""

    def __init__(self, relation: Relation):
        self.relation = relation
        self.version = 0

    @property
    def name(self) -> str:
        """The wrapped relation's input name (stable across versions)."""
        return self.relation.name

    # -- updates -----------------------------------------------------------

    def apply(self, inserted: Iterable[Sequence[Value]] = (),
              deleted: Iterable[Sequence[Value]] = ()
              ) -> RelationDelta:
        """Apply one batch (deletes first, then inserts; set semantics).

        No-op rows — deleting an absent tuple, inserting a present one —
        are filtered before the delta is built, so the returned record
        holds exactly the membership changes. Raises
        :class:`~repro.errors.UpdateError` on an arity mismatch.
        """
        arity = self.relation.schema.arity

        def checked(row: Sequence[Value]) -> tuple[Value, ...]:
            tup = tuple(row)
            if len(tup) != arity:
                raise UpdateError(
                    f"relation {self.name!r}: row {tup!r} has arity "
                    f"{len(tup)}, schema has arity {arity}")
            return tup

        rows = self.relation.rows
        dropped: list[tuple[Value, ...]] = []
        seen_dropped: set[tuple[Value, ...]] = set()
        for row in deleted:
            tup = checked(row)
            if tup in rows and tup not in seen_dropped:
                dropped.append(tup)
                seen_dropped.add(tup)
        added: list[tuple[Value, ...]] = []
        seen_added: set[tuple[Value, ...]] = set()
        for row in inserted:
            tup = checked(row)
            present = tup in rows and tup not in seen_dropped
            if not present and tup not in seen_added:
                added.append(tup)
                seen_added.add(tup)

        previous = self.relation
        self.relation = previous.with_row_changes(added=added,
                                                  removed=dropped)
        inherit_dictionaries(self.relation, previous)
        self.version += 1
        return RelationDelta(self.name, self.version,
                             inserted=tuple(added), deleted=tuple(dropped))

    def insert(self, row: Sequence[Value]) -> RelationDelta:
        """Insert one tuple (convenience over :meth:`apply`)."""
        return self.apply(inserted=[row])

    def delete(self, row: Sequence[Value]) -> RelationDelta:
        """Delete one tuple (convenience over :meth:`apply`)."""
        return self.apply(deleted=[row])

    def __repr__(self) -> str:
        return (f"VersionedRelation({self.name!r}, v{self.version}, "
                f"{len(self.relation)} rows)")
