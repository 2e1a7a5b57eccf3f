"""Encoded physical representation of a query: the engine's second layer.

An :class:`EncodedInstance` is built **once** per query and then handed to
any :class:`~repro.engine.interface.JoinAlgorithm`. It bundles

* one shared :class:`~repro.engine.dictionary.Dictionary` per attribute,
* one :class:`EncodedTrie` per input — relations directly, twig
  path-relations from the document's P-C chains and one pair input per
  cut A-D twig edge from the document's ancestor-descendant node pairs.
  Twig rows are never materialised as :class:`Relation`s (the paper's
  "we do not physically transform them into relational tables"); a
  transient distinct-row set is gathered once per input to feed both
  the shared dictionaries and the trie build,
* the participation map (which tries bind which level of the global
  attribute order), and
* for multi-model queries, the per-level structure checks
  (:class:`TwigFilters`) XJoin runs as each twig's last attribute binds.

Tries store dense int codes: every level's key list is a sorted typed
buffer (:mod:`repro.buffers.layout` picks the narrowest ``array``
typecode from the level's code bound and widens on demand; code order ==
value order, see the dictionary layer), so seeks are galloping probes
over contiguous ints and hashed descent probes int-keyed dicts. Building
from sorted encoded rows shares prefixes with the previous row, which
also yields the key buffers already sorted — no per-node sort pass. The
update layer's ``insert``/``remove`` splice the same buffers in place
(amortized via the array over-allocation), so delta maintenance never
forces a repack.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.buffers.kernels import gallop
from repro.buffers.layout import (
    insert_code,
    make,
    remove_code,
    typecode_for,
)
from repro.engine.dictionary import Dictionary, DictionaryBuilder, encode_rows
from repro.errors import EngineError, QueryError
from repro.relational.relation import Relation
from repro.relational.schema import Schema, Value

if TYPE_CHECKING:
    from repro.core.multimodel import MultiModelQuery
    from repro.core.validation import StructureValidator


class EncodedTrieNode:
    """One trie level: a sorted typed code buffer plus child pointers."""

    __slots__ = ("keys", "children")

    def __init__(self, typecode: str = "H") -> None:
        self.keys = make(typecode)
        self.children: dict[int, "EncodedTrieNode"] = {}

    def seek_index(self, code: int) -> int:
        """Index of the first key >= *code*."""
        return gallop(self.keys, code)

    def __len__(self) -> int:
        return len(self.keys)


class EncodedTrie:
    """A dictionary-encoded input indexed as a trie over ``order``.

    ``encoded_rows`` must be *distinct* (encoding a relation's distinct
    rows, or an already-deduplicated row set, guarantees this).
    ``code_bounds`` optionally gives the maximum code per level (the
    builders pass each level dictionary's size) so every node at that
    level packs into the narrowest typecode without a scan; without it
    the rows are scanned once, column-wise.
    """

    __slots__ = ("name", "order", "root", "size", "_typecodes")

    def __init__(self, name: str, order: Sequence[str],
                 encoded_rows: Iterable[tuple[int, ...]], *,
                 code_bounds: Sequence[int] | None = None):
        self.name = name
        self.order = tuple(order)
        rows = sorted(encoded_rows)
        self.size = len(rows)
        if code_bounds is None:
            bounds = ([max(column) for column in zip(*rows)] if rows
                      else [0] * len(self.order))
        else:
            bounds = list(code_bounds)
        # One typecode per level, plus a trailing narrow one so child
        # creation below the last level never indexes out of range.
        self._typecodes = tuple(typecode_for(max(hi, 0)) for hi in bounds) \
            + ("B",)
        root = EncodedTrieNode(self._typecodes[0])
        # Sorted insertion: reuse the chain of nodes shared with the
        # previous row; new keys always append in sorted position.
        chain: list[EncodedTrieNode] = [root]
        previous: tuple[int, ...] | None = None
        typecodes = self._typecodes
        for row in rows:
            split = 0
            if previous is not None:
                limit = len(row)
                while split < limit and row[split] == previous[split]:
                    split += 1
            del chain[split + 1:]
            node = chain[split]
            for level, code in enumerate(row[split:], split):
                child = EncodedTrieNode(typecodes[level + 1])
                node.keys.append(code)
                node.children[code] = child
                chain.append(child)
                node = child
            previous = row
        self.root = root

    @property
    def depth(self) -> int:
        """The trie's level count (= the arity of its rows)."""
        return len(self.order)

    # -- delta maintenance (repro.updates) ---------------------------------

    def _check_arity(self, row: "tuple[int, ...]") -> None:
        if len(row) != len(self.order):
            raise EngineError(
                f"trie {self.name!r}: row {row!r} has arity {len(row)}, "
                f"trie order {list(self.order)!r} has arity "
                f"{len(self.order)}")

    def insert(self, row: "tuple[int, ...]") -> bool:
        """Insert one encoded row; returns False if it was present.

        Keys stay sorted (a sorted buffer splice, widening the typecode
        when a new code outgrows it), so iterators and seeks keep
        working on the patched trie without a rebuild.
        """
        self._check_arity(row)
        if not row:  # zero-arity trie: holds the empty tuple or nothing
            present = self.size > 0
            self.size = 1
            return not present
        node = self.root
        created = False
        for level, code in enumerate(row):
            child = node.children.get(code)
            if child is None:
                child = EncodedTrieNode(self._typecodes[level + 1])
                node.keys = insert_code(node.keys, code)
                node.children[code] = child
                created = True
            node = child
        if created:
            self.size += 1
        return created

    def remove(self, row: "tuple[int, ...]") -> bool:
        """Remove one encoded row, pruning emptied nodes; returns False
        if the row was not present."""
        self._check_arity(row)
        if not row:
            if not self.size:
                return False
            self.size = 0
            return True
        path: list[tuple[EncodedTrieNode, int]] = []
        node = self.root
        for code in row:
            child = node.children.get(code)
            if child is None:
                return False
            path.append((node, code))
            node = child
        for node, code in reversed(path):
            if len(node.children[code].keys):
                break
            del node.children[code]
            node.keys = remove_code(node.keys, code)
        self.size -= 1
        return True

    def tuples(self):
        """Enumerate stored code tuples in sorted order (for tests)."""

        def recurse(node: EncodedTrieNode, prefix: tuple[int, ...]):
            if len(prefix) == self.depth:
                yield prefix
                return
            for code in node.keys:
                yield from recurse(node.children[code], prefix + (code,))

        yield from recurse(self.root, ())


class EncodedTrieIterator:
    """The LFTJ iterator interface (open/up/next/seek/key) over int codes.

    The current level's node and position live in flat slots (not at the
    top of a stack) so the per-comparison methods — ``key``, ``at_end``,
    ``next``, ``seek`` — touch no list indexing beyond the key array.
    Position -1 is the virtual root level before the first ``open``.
    """

    __slots__ = ("_node", "_pos", "_stack")

    def __init__(self, trie: EncodedTrie):
        self._node = trie.root
        self._pos = -1
        self._stack: list[tuple[EncodedTrieNode, int]] = []

    def open(self) -> None:
        """Descend to the first key of the current key's child level."""
        node = self._node
        self._stack.append((node, self._pos))
        if self._pos >= 0:
            self._node = node.children[node.keys[self._pos]]
        self._pos = 0

    def up(self) -> None:
        """Return to the parent level (the position before ``open``)."""
        self._node, self._pos = self._stack.pop()

    def at_end(self) -> bool:
        """Is the cursor past the current level's last key?"""
        return self._pos >= len(self._node.keys)

    def key(self) -> int:
        """The code at the cursor (undefined when :meth:`at_end`)."""
        return self._node.keys[self._pos]

    def next(self) -> None:
        """Advance the cursor by one key."""
        self._pos += 1

    def seek(self, code: int) -> None:
        """Advance the cursor to the first key >= *code* (never back).

        Gallops from the cursor, so a seek costs O(log d) in the
        distance d actually moved, not in the level's width.
        """
        index = gallop(self._node.keys, code, self._pos if self._pos > 0
                       else 0)
        if index > self._pos:
            self._pos = index

    def current_keys(self) -> Sequence[int]:
        """The current level's full key buffer (batch kernels read it)."""
        return self._node.keys


@dataclass
class TwigFilters:
    """Where XJoin validates twig structure during its expansion.

    ``checks[level]`` lists, for every twig whose last attribute binds
    at that level, the positions of the twig's (pre-order) attributes in
    the global order and the twig's validator. ``validated_at`` names
    that attribute per twig — None when the check is skipped because the
    join already implies an embedding (see
    :func:`repro.core.validation.join_implies_embedding`)."""

    checks: "list[list[tuple[tuple[int, ...], StructureValidator]]]" = \
        field(default_factory=list)
    validated_at: "dict[str, str | None]" = field(default_factory=dict)


def _global_order(schemas: Sequence[Sequence[str]],
                  order: Sequence[str] | None) -> tuple[str, ...]:
    """Resolve/validate a global attribute order over the input schemas."""
    all_attrs: list[str] = []
    for schema in schemas:
        for attribute in schema:
            if attribute not in all_attrs:
                all_attrs.append(attribute)
    if order is None:
        return tuple(all_attrs)
    order = tuple(order)
    if sorted(order) != sorted(all_attrs):
        raise QueryError(
            f"attribute order {list(order)!r} must be a permutation of the "
            f"query attributes {sorted(all_attrs)!r}")
    return order


def _input_trie(name: str, schema: Schema, rows: Iterable[tuple],
                order: tuple[str, ...],
                dictionaries: dict[str, Dictionary]) -> EncodedTrie:
    """Encode one input's distinct *rows* into a trie whose levels
    follow the global *order* restricted to the input's *schema*."""
    trie_order = schema.restrict_order(order)
    encoded = encode_rows(rows, schema.positions(trie_order),
                          [dictionaries[a] for a in trie_order])
    bounds = [len(dictionaries[a].values) - 1 for a in trie_order]
    return EncodedTrie(name, trie_order, encoded, code_bounds=bounds)


class EncodedInstance:
    """Everything a :class:`JoinAlgorithm` needs, built once per query."""

    __slots__ = ("name", "order", "dictionaries", "tries", "participation",
                 "relations", "query", "twig_filters", "erase_structural",
                 "_level_values")

    def __init__(self, name: str, order: tuple[str, ...],
                 dictionaries: dict[str, Dictionary],
                 tries: list[EncodedTrie], *,
                 relations: Sequence[Relation] = (),
                 query: "MultiModelQuery | None" = None,
                 twig_filters: TwigFilters | None = None,
                 erase_structural: bool = False):
        self.name = name
        self.order = order
        self.dictionaries = dictionaries
        self.tries = tries
        self.relations = list(relations)
        self.query = query
        self.twig_filters = twig_filters
        self.erase_structural = erase_structural
        #: participation[level] = indexes of the tries binding that level.
        self.participation: list[list[int]] = [[] for _ in order]
        for index, trie in enumerate(tries):
            for attribute in trie.order:
                self.participation[order.index(attribute)].append(index)
        #: Per-level decode tables (value tuple of the level's dictionary).
        self._level_values: list[tuple[Value, ...]] = [
            dictionaries[a].values if a in dictionaries else ()
            for a in order]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_relations(cls, relations: Sequence[Relation],
                       order: Sequence[str] | None = None, *,
                       name: str = "Q") -> "EncodedInstance":
        """Encode a purely relational natural-join query."""
        resolved = _global_order([r.schema.attributes for r in relations],
                                 order)
        builder = DictionaryBuilder()
        for relation in relations:
            builder.add_relation(relation)
        dictionaries = builder.build()
        tries = [_input_trie(relation.name, relation.schema, relation.rows,
                             resolved, dictionaries)
                 for relation in relations]
        return cls(name, resolved, dictionaries, tries, relations=relations)

    @classmethod
    def reference(cls, query: "MultiModelQuery") -> "EncodedInstance":
        """A trie-less instance for operators that evaluate from the
        source inputs (the baseline foil): carries the query, builds no
        dictionaries or tries."""
        return cls(query.name, (), {}, [], relations=query.relations,
                   query=query)

    @classmethod
    def from_query(cls, query: "MultiModelQuery",
                   order: Sequence[str], *,
                   validate_structure: bool = True) -> "EncodedInstance":
        """Encode a multi-model query: relations, the twigs' decomposed
        root-leaf path relations and their A-D pair inputs, all over
        shared dictionaries, plus the per-level structure checks.

        ``order`` must already be resolved (see
        :func:`repro.core.planner.attribute_order`).
        ``validate_structure=False`` encodes the paper's relaxed value
        join instead: path relations only, no pair inputs, no checks.
        """
        from repro.core.decomposition import (
            iter_pair_value_rows,
            iter_path_value_rows,
        )
        from repro.core.validation import (
            StructureValidator,
            validation_points,
        )

        expansion = tuple(order)
        structural = {binding.name: query.structural_attributes(binding)
                      for binding in query.twigs}

        # Gather each twig input's distinct value rows once (a transient
        # set, not a Relation); both the dictionary builder and the trie
        # build read them, so a single document walk pays for both.
        twig_inputs: list[tuple[str, tuple[str, ...], set[tuple]]] = []
        for binding in query.twigs:
            decomposition = query.decompositions[binding.name]
            by_identity = structural[binding.name]
            for path in decomposition.paths:
                rows = set(iter_path_value_rows(binding.document, path,
                                                by_identity))
                twig_inputs.append((path.name, path.attributes, rows))
            for pair in decomposition.pairs if validate_structure else ():
                rows = set(iter_pair_value_rows(binding.document, pair,
                                                by_identity))
                twig_inputs.append((pair.name, pair.attributes, rows))

        builder = DictionaryBuilder()
        for relation in query.relations:
            builder.add_relation(relation)
        for _name, attributes, rows in twig_inputs:
            builder.add_rows(attributes, rows)
        dictionaries = builder.build()
        # Attributes no input binds cannot occur for a valid query, but
        # keep decode total for them anyway.
        for attribute in expansion:
            dictionaries.setdefault(attribute, Dictionary(attribute, ()))

        tries = [_input_trie(relation.name, relation.schema, relation.rows,
                             expansion, dictionaries)
                 for relation in query.relations]
        tries += [_input_trie(name, Schema(attributes), rows, expansion,
                              dictionaries)
                  for name, attributes, rows in twig_inputs]

        filters = TwigFilters(checks=[[] for _ in expansion])
        if validate_structure:
            filters.validated_at = validation_points(query, expansion)
            for binding in query.twigs:
                attribute = filters.validated_at[binding.name]
                if attribute is None:
                    continue
                names = binding.twig.attributes
                validator = StructureValidator(
                    binding.document, binding.twig,
                    [dictionaries[a].values for a in names])
                filters.checks[expansion.index(attribute)].append(
                    (tuple(expansion.index(a) for a in names), validator))

        return cls(query.name, expansion, dictionaries, tries,
                   relations=query.relations, query=query,
                   twig_filters=filters,
                   erase_structural=any(structural.values()))

    # -- helpers for algorithms -------------------------------------------

    def has_empty_input(self) -> bool:
        """Any empty input (of positive arity) empties the whole join."""
        return any(trie.depth > 0 and not trie.root.keys
                   for trie in self.tries)

    def decode_row(self, codes: Sequence[int]) -> tuple[Value, ...]:
        """Decode one code row over the global order into values."""
        return tuple(values[code]
                     for values, code in zip(self._level_values, codes))

    def decode_value(self, level: int, code: int) -> Value:
        """Decode one code through the named level's dictionary."""
        return self._level_values[level][code]

    def result_relation(self, code_rows: Sequence[Sequence[int]],
                        name: str | None = None) -> Relation:
        """Decode emitted code rows into a relation over ``order``."""
        if not self.order:
            decoded: "Iterable[tuple[Value, ...]]" = [() for _ in code_rows]
        elif code_rows:
            # Column-wise decode (transpose, index, transpose back) keeps
            # the per-value work in C-level loops.
            columns = [[values[code] for code in column]
                       for values, column in zip(self._level_values,
                                                 zip(*code_rows))]
            decoded = zip(*columns)
        else:
            decoded = []
        return Relation(name or self.name, Schema(self.order), decoded)

    def __repr__(self) -> str:
        return (f"EncodedInstance({self.name!r}, order={list(self.order)!r}, "
                f"{len(self.tries)} tries)")
