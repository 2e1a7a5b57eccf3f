"""Relational schemas: ordered sequences of named attributes.

A :class:`Schema` is an immutable, ordered collection of distinct attribute
names. Tuples of a relation are plain Python tuples positionally aligned
with the schema. The module also provides :func:`sort_key`, a total order
over the mixed value domain (ints, floats, strings, ...) used everywhere a
deterministic order is needed (tries, leapfrog iterators, sorted output),
and :func:`parse_value`, which types the text of an XML node.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.errors import SchemaError

#: The value domain of the library: any hashable scalar. Integers and
#: strings are what the paper's workloads use; floats appear in examples.
Value = Any

_TYPE_RANK = {bool: 0, int: 1, float: 1, str: 2, bytes: 3, tuple: 4}


def sort_key(value: Value) -> tuple[int, Value]:
    """Total order over mixed-type values.

    Numbers sort together by numeric value, then strings, then bytes, then
    tuples; any other type sorts last by its repr. This makes sorting a
    column containing e.g. both ints and strings well defined instead of
    raising ``TypeError``.
    """
    rank = _TYPE_RANK.get(type(value))
    if rank is None:
        return (9, repr(value))
    if rank == 0:  # bool is an int subclass; fold it into the numeric rank
        return (1, int(value))
    return (rank, value)


def parse_value(text: str) -> Value:
    """Revive a text value: int if it looks like an int, else float, else str."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def tuple_sort_key(row: Sequence[Value]) -> tuple[tuple[int, Value], ...]:
    """Lexicographic extension of :func:`sort_key` to whole tuples."""
    return tuple(sort_key(v) for v in row)


class Schema:
    """An immutable ordered list of distinct attribute names.

    >>> s = Schema(["a", "b", "c"])
    >>> s.index("b")
    1
    >>> s.project(["c", "a"]).attributes
    ('c', 'a')
    """

    __slots__ = ("_attributes", "_index")

    def __init__(self, attributes: Iterable[str]):
        attrs = tuple(attributes)
        if not all(isinstance(a, str) and a for a in attrs):
            raise SchemaError(f"attribute names must be non-empty strings: {attrs!r}")
        index: dict[str, int] = {}
        for position, name in enumerate(attrs):
            if name in index:
                raise SchemaError(f"duplicate attribute {name!r} in schema {attrs!r}")
            index[name] = position
        self._attributes = attrs
        self._index = index

    @property
    def attributes(self) -> tuple[str, ...]:
        """The attribute names, in schema order."""
        return self._attributes

    @property
    def arity(self) -> int:
        return len(self._attributes)

    def index(self, attribute: str) -> int:
        """Position of *attribute*, raising :class:`SchemaError` if absent."""
        try:
            return self._index[attribute]
        except KeyError:
            raise SchemaError(
                f"attribute {attribute!r} not in schema {self._attributes!r}"
            ) from None

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __getitem__(self, position: int) -> str:
        return self._attributes[position]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Schema):
            return self._attributes == other._attributes
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        return f"Schema({list(self._attributes)!r})"

    def project(self, attributes: Iterable[str]) -> "Schema":
        """A new schema with the given attributes (order as requested)."""
        attrs = tuple(attributes)
        for name in attrs:
            self.index(name)  # validates membership
        return Schema(attrs)

    def positions(self, attributes: Iterable[str]) -> tuple[int, ...]:
        """Positions of each requested attribute, in request order."""
        return tuple(self.index(a) for a in attributes)

    def common(self, other: "Schema") -> tuple[str, ...]:
        """Attributes shared with *other*, in this schema's order."""
        return tuple(a for a in self._attributes if a in other)

    def union(self, other: "Schema") -> "Schema":
        """This schema followed by *other*'s attributes not already present."""
        extra = tuple(a for a in other if a not in self)
        return Schema(self._attributes + extra)

    def restrict_order(self, order: Sequence[str]) -> tuple[str, ...]:
        """The subsequence of *order* consisting of this schema's attributes.

        Raises :class:`SchemaError` unless *order* covers the whole schema;
        used to derive per-relation trie orders from a global attribute
        order.
        """
        covered = tuple(a for a in order if a in self)
        if len(covered) != self.arity:
            missing = sorted(set(self._attributes) - set(covered))
            raise SchemaError(
                f"attribute order {list(order)!r} does not cover {missing!r}"
            )
        return covered
