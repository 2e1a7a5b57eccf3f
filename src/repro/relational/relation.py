"""In-memory relations: named sets of tuples over a schema.

A :class:`Relation` stores *distinct* tuples (set semantics, as the paper's
size bounds assume). Construction validates arity. The algebra the
library uses (project, select, natural join) lives on the class;
:mod:`repro.relational.operators` holds the multiway natural-join oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.errors import RelationError
from repro.relational.schema import Schema, Value, tuple_sort_key


class Relation:
    """A named, immutable set of tuples over a :class:`Schema`.

    >>> r = Relation("R", ("a", "b"), [(1, 2), (1, 3)])
    >>> len(r)
    2
    >>> sorted(r.project(["a"]))
    [(1,)]
    """

    # ``artefacts``: what the engine derives from the rows (statistics,
    # dictionaries, encoded inputs; repro.engine.encoded.relation_artefacts),
    # None until first used. It dies with the relation.
    __slots__ = ("name", "schema", "_rows", "artefacts", "__weakref__")

    def __init__(self, name: str, schema: Schema | Sequence[str],
                 rows: Iterable[Sequence[Value]] = ()):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.name = name
        self.schema = schema
        frozen: set[tuple[Value, ...]] = set()
        arity = schema.arity
        for row in rows:
            tup = tuple(row)
            if len(tup) != arity:
                raise RelationError(
                    f"relation {name!r}: row {tup!r} has arity {len(tup)}, "
                    f"schema {schema.attributes!r} has arity {arity}"
                )
            frozen.add(tup)
        self._rows = frozenset(frozen)
        self.artefacts = None

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------

    @property
    def rows(self) -> frozenset[tuple[Value, ...]]:
        """The tuple set (distinct rows)."""
        return self._rows

    def __iter__(self) -> Iterator[tuple[Value, ...]]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        """Equality on schema + tuple set (name is a label, not identity)."""
        if isinstance(other, Relation):
            return self.schema == other.schema and self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.schema, self._rows))

    def __repr__(self) -> str:
        return (f"Relation({self.name!r}, {list(self.schema.attributes)!r}, "
                f"{len(self._rows)} rows)")

    def sorted_rows(self) -> list[tuple[Value, ...]]:
        """Rows in deterministic (mixed-type lexicographic) order."""
        return sorted(self._rows, key=tuple_sort_key)

    # ------------------------------------------------------------------
    # core algebra (thin wrappers; heavy lifting in operators.py)
    # ------------------------------------------------------------------

    @classmethod
    def trusted(cls, name: str, schema: Schema,
                rows: "frozenset[tuple[Value, ...]]") -> "Relation":
        """Wrap a row set whose tuples already have *schema*'s arity —
        no per-row validation, no copy."""
        relation = cls.__new__(cls)
        relation.name = name
        relation.schema = schema
        relation._rows = rows
        relation.artefacts = None
        return relation

    def with_name(self, name: str) -> "Relation":
        """Same contents under a different name (no copy of the row set)."""
        return Relation.trusted(name, self.schema, self._rows)

    def with_row_changes(self, added: Iterable[Sequence[Value]] = (),
                         removed: Iterable[Sequence[Value]] = ()
                         ) -> "Relation":
        """A new relation with *removed* rows dropped and *added* rows
        inserted (applied in that order; set semantics).

        The delta constructor used by the update layer: only the added
        rows are arity-checked, so applying a single-tuple delta never
        re-validates the whole row set.
        """
        rows = set(self._rows)
        rows.difference_update(tuple(row) for row in removed)
        arity = self.schema.arity
        for row in added:
            tup = tuple(row)
            if len(tup) != arity:
                raise RelationError(
                    f"relation {self.name!r}: row {tup!r} has arity "
                    f"{len(tup)}, schema {self.schema.attributes!r} has "
                    f"arity {arity}"
                )
            rows.add(tup)
        return Relation.trusted(self.name, self.schema, frozenset(rows))

    def project(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Projection (with duplicate elimination) onto *attributes*."""
        positions = self.schema.positions(attributes)
        rows = {tuple(row[p] for p in positions) for row in self._rows}
        return Relation(name or self.name, Schema(attributes), rows)

    def select(self, predicate: Callable[[Mapping[str, Value]], Any],
               name: str | None = None) -> "Relation":
        """Selection by a predicate over an attribute->value mapping."""
        attrs = self.schema.attributes
        keep = [row for row in self._rows
                if predicate(dict(zip(attrs, row)))]
        return Relation(name or self.name, self.schema, keep)

    def natural_join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Natural join, implemented by hashing on the shared attributes.

        This is the reference implementation used as a correctness oracle;
        the planned/instrumented joins live in :mod:`repro.relational.joins`.
        """
        shared = self.schema.common(other.schema)
        left_pos = self.schema.positions(shared)
        right_pos = other.schema.positions(shared)
        extra = tuple(a for a in other.schema if a not in self.schema)
        extra_pos = other.schema.positions(extra)

        index: dict[tuple[Value, ...], list[tuple[Value, ...]]] = {}
        for row in other._rows:
            index.setdefault(tuple(row[p] for p in right_pos), []).append(row)

        out_schema = Schema(self.schema.attributes + extra)
        out_rows = []
        for row in self._rows:
            key = tuple(row[p] for p in left_pos)
            for match in index.get(key, ()):
                out_rows.append(row + tuple(match[p] for p in extra_pos))
        return Relation(name or f"({self.name}⋈{other.name})", out_schema, out_rows)

    def distinct_values(self, attribute: str) -> set[Value]:
        """The active domain of one attribute."""
        position = self.schema.index(attribute)
        return {row[position] for row in self._rows}

    def to_dicts(self) -> list[dict[str, Value]]:
        """Rows as attribute->value dicts, in deterministic order."""
        attrs = self.schema.attributes
        return [dict(zip(attrs, row)) for row in self.sorted_rows()]
