"""Encoded physical representation of a query: the engine's second layer.

An input's encoded form (:class:`EncodedInput`: local dictionaries and
trie) is built **once per input version** and kept with the input's
other derived state: the relation's ``artefacts``, or the columnar
view's ``derived`` dict for twig inputs. An
:class:`EncodedInstance` *assembles* them for one global attribute order
and is handed to any :class:`~repro.engine.interface.JoinAlgorithm`:

* one global :class:`~repro.engine.dictionary.Dictionary` per attribute,
  merged from the local ones of the inputs binding it,
* one :class:`EncodedTrie` per input — relations, twig path-relations
  (never materialised as :class:`Relation`s: the paper's "we do not
  physically transform them into relational tables") and one pair input
  per cut A-D twig edge: the cached trie as it stands where the union
  adds nothing to the input's local domains, else re-keyed (once)
  through the monotone local -> global code tables. Global orders that
  agree on an input's column order share its trie,
* the participation map (which tries bind which level of the order), and
* for multi-model queries, the per-level structure checks
  (:class:`TwigFilters`) XJoin runs as each twig's last attribute binds.

Tries store dense int codes: every level's key list is a sorted typed
buffer (:mod:`repro.buffers.layout` picks the narrowest ``array``
typecode from the level's code bound and widens on demand; code order ==
value order), so sorted intersections probe contiguous ints and hashed
descent probes int-keyed dicts. A trie is built from its input's code
columns, never from row tuples: sorted by distribution into code
buckets, then a level at a time, one node per distinct prefix; rows
end (repeats dropped) in one shared empty leaf node, not one each. A
relation's code columns, with its dictionaries and statistics, come
from one cold pass per version (:func:`relation_columns`), a twig
input's from column gathers (:mod:`repro.core.decomposition`).
A trie is immutable once built: an update builds the next version's
trie, and cached tries are shared by every instance over their input.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, groupby, islice, \
    product, repeat
from operator import itemgetter, le
from typing import TYPE_CHECKING

from repro.buffers.layout import gather, make, pack, typecode_for
from repro.core import multimodel
from repro.engine.dictionary import Dictionary, merge_dictionaries
from repro.errors import EngineError, QueryError
from repro.relational.relation import Relation
from repro.relational.schema import Schema, Value

if TYPE_CHECKING:
    from repro.core.multimodel import MultiModelQuery, TwigBinding
    from repro.core.validation import StructureValidator


class EncodedTrieNode:
    """One trie level: a sorted typed code buffer plus child pointers.

    A last-level node of a trie the frontier kernel masks also holds
    ``bits``, an int whose bit *c* is set iff code *c* is a child key,
    carrying the child count as ``bits.size``
    (:func:`repro.engine.algorithms._masked`); no other node sets it."""

    __slots__ = ("keys", "children", "bits")

    def __init__(self, typecode: str = "H") -> None:
        self.keys = make(typecode)
        self.children: dict[int, "EncodedTrieNode"] = {}

    def __len__(self) -> int:
        return len(self.keys)


#: The node every stored row of every trie ends in; never written to.
_LEAF = EncodedTrieNode("B")

#: Code bound / row count above which a pass sorts by key: one pass
#: costs the same both ways at 3-4.5x (50 to 30k rows); dictionary
#: codes reach at most 3x on the e2e workloads, so those distribute.
_SPARSE = 4


class EncodedTrie:
    """A dictionary-encoded input indexed as a trie over ``order``.

    Built from code columns (:meth:`from_columns`); the constructor
    transposes ``encoded_rows`` (a repeat is stored once) into them.
    ``code_bounds`` optionally gives the maximum code per level (the
    builders pass each level dictionary's size), which sizes each
    level's typecode and sorting buckets; without it the columns are
    scanned once. ``_weights`` is where the parallel partitioner keeps
    the trie's rows per root code (:mod:`repro.parallel.partition`);
    ``_masks`` is where the frontier kernel records whether the trie's
    last-level nodes carry ``bits``: a one-item list, None until a
    hashed run first meets the trie at an order's last level, shared
    with the trie's slices (:func:`repro.engine.algorithms._masked`).
    """

    __slots__ = ("name", "order", "root", "size", "_weights", "_masks")

    def __init__(self, name: str, order: Sequence[str],
                 encoded_rows: Iterable[tuple[int, ...]], *,
                 code_bounds: Sequence[int] | None = None):
        rows = list(encoded_rows)
        if any(len(row) != len(order) for row in rows):
            raise EngineError(
                f"trie {name!r}: every row must have the arity of its "
                f"order {list(order)!r}")
        self._fill(name, order, list(zip(*rows)) if rows
                   else [() for _ in order], len(rows), code_bounds)

    @classmethod
    def from_columns(cls, name: str, order: Sequence[str],
                     columns: "Sequence[Sequence[int]]", count: int,
                     code_bounds: Sequence[int] | None = None
                     ) -> "EncodedTrie":
        """The trie of *count* rows given as one code column per level
        of *order* (row-parallel), never as row tuples; rows may repeat.
        A zero-arity trie holds ``()`` iff *count*."""
        return cls.__new__(cls)._fill(name, order, columns, count,
                                      code_bounds)

    def _fill(self, name: str, order: Sequence[str],
              columns: "Sequence[Sequence[int]]", count: int,
              code_bounds: Sequence[int] | None) -> "EncodedTrie":
        """The one construction body, from columns."""
        self.name, self.order, self._weights = name, tuple(order), None
        self._masks = [None]
        bounds = [max(column, default=0) for column in columns] \
            if code_bounds is None else list(code_bounds)
        # One typecode per level, plus a trailing narrow one so a
        # zero-arity trie still has a root typecode.
        typecodes = tuple(
            typecode_for(max(hi, 0)) for hi in bounds) + ("B",)
        self.root = EncodedTrieNode(typecodes[0])
        if not (columns and count):
            # A zero-arity trie holds () or nothing.
            self.size = 0 if columns else min(count, 1)
            return self
        # An LSD counting sort: stable distributions into one bucket per
        # code, last column first, skipping a column already in order (a
        # sparse one sorts by key). Row indexes move, never the codes.
        permutation = None
        for level in range(len(columns) - 1, -1, -1):
            codes, rows = (columns[level], range(count)) \
                if permutation is None \
                else (gather(columns[level], permutation), permutation)
            if (level or len(columns) == 1) \
                    and all(map(le, codes, islice(codes, 1, None))):
                continue
            if bounds[level] > _SPARSE * count:
                key = columns[level].__getitem__
                runs = [list(run) for _key, run
                        in groupby(sorted(rows, key=key), key)]
            else:
                runs = [[] for _ in range(bounds[level] + 1)]
                deque(map(list.append, map(runs.__getitem__, codes), rows), 0)
                runs = list(filter(None, runs))
            permutation = list(chain.from_iterable(runs))
        spans, first = [(self.root, 0, count)], int(len(columns) > 1)
        if first:
            keys = list(map(columns[0].__getitem__, map(itemgetter(0), runs)))
            children = list(map(EncodedTrieNode.__new__,
                                repeat(EncodedTrieNode, len(keys))))
            self.root.keys = make(typecodes[0], keys)
            self.root.children = dict(zip(keys, children))
            ends = [0, *accumulate(map(len, runs))]
            spans = list(zip(children, ends, ends[1:]))
        if permutation is not None:
            columns = [*columns[:first], *(gather(column, permutation)
                                           for column in columns[first:])]
        # A level at a time, one node per distinct prefix: a node spans
        # a run of the sorted rows, and its keys are the runs of the
        # level's column inside that span.
        for level in range(first, len(columns) - 1):
            column, below = columns[level], []
            for node, lo, hi in spans:
                keys, children = [], []
                while lo < hi:
                    code = column[lo]
                    end = bisect_right(column, code, lo, hi)
                    # Its keys and children are set a level below.
                    child = EncodedTrieNode.__new__(EncodedTrieNode)
                    keys.append(code)
                    children.append(child)
                    below.append((child, lo, end))
                    lo = end
                node.keys = make(typecodes[level], keys)
                node.children = dict(zip(keys, children))
            spans = below
        # The last level: the children dict drops a repeated row's key.
        column = columns[-1]
        buffer = make(typecodes[-2], column)
        for node, lo, hi in spans:
            children = node.children = dict.fromkeys(column[lo:hi], _LEAF)
            node.keys = buffer[lo:hi] if len(children) == hi - lo \
                else make(typecodes[-2], children)
        self.size = sum(len(node.children) for node, _lo, _hi in spans)
        return self

    @property
    def depth(self) -> int:
        """The trie's level count (= the arity of its rows)."""
        return len(self.order)

    def rekeyed(self, tables: "Sequence[list | None]") -> "EncodedTrie":
        """A copy with each level's codes mapped through its
        monotone *table* (None = unchanged; an empty one, a level over
        an empty dictionary, has no code to map): keys stay sorted and
        grouped, so one pass over the nodes; levels below the deepest
        mapped one are shared."""
        last = len(self.order) - 1
        deepest = max(level for level, table in enumerate(tables) if table)

        def copy(node: EncodedTrieNode, level: int) -> EncodedTrieNode:
            if level > deepest:
                return node
            table = tables[level]
            out = EncodedTrieNode()
            out.keys = node.keys if not table else pack(
                [table[code] for code in node.keys], hi=table[-1])
            out.children = dict.fromkeys(out.keys, _LEAF) if level == last \
                else dict(zip(out.keys, [copy(node.children[code], level + 1)
                                         for code in node.keys]))
            return out

        clone = EncodedTrie.__new__(EncodedTrie)
        clone.name, clone.order, clone.size = self.name, self.order, self.size
        clone.root = copy(self.root, 0)
        clone._weights, clone._masks = None, [None]
        return clone

    def tuples(self):
        """Enumerate stored code tuples in sorted order (for tests)."""

        if not self.size:
            return  # also the zero-arity trie that holds no ()

        def recurse(node: EncodedTrieNode, prefix: tuple[int, ...]):
            if len(prefix) == self.depth:
                yield prefix
                return
            for code in node.keys:
                yield from recurse(node.children[code], prefix + (code,))

        yield from recurse(self.root, ())


@dataclass
class TwigFilters:
    """Where XJoin validates twig structure during its expansion.

    ``checks[level]`` lists, for every twig whose last attribute binds
    at that level, the positions of the twig's (pre-order) attributes in
    the global order and the twig's validator. ``validated_at`` names
    that attribute per twig — None when the check is skipped because the
    join already implies an embedding (see
    :func:`repro.core.validation.join_implies_embedding`). ``tested`` is
    the order's last attribute when its level is a witness test instead
    of an enumeration (:func:`repro.core.validation.tested_attribute`)."""

    checks: "list[list[tuple[tuple[int, ...], StructureValidator]]]" = \
        field(default_factory=list)
    validated_at: "dict[str, str | None]" = field(default_factory=dict)
    tested: "str | None" = None


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


class EncodedInput:
    """One input under one column order, cached for the input's version:
    its own (*local*) ``dictionaries``, one per column of ``trie.order``
    — a relation's over exactly the values stored there, a twig
    column's its tag's, shared by every input over the tag (value codes,
    or the identity codes of :class:`repro.core.surrogate.NodeDictionary`)
    — and the ``trie`` over their codes. No reference leads back to the
    relation, document or query, so the artefact dies with them."""

    __slots__ = ("dictionaries", "trie", "_rekeyed")

    def __init__(self, name: str, columns: Sequence[str],
                 dictionaries: Sequence[Dictionary],
                 code_columns: "Sequence[Sequence[int]]", count: int):
        """Index *count* rows, given as one code column (codes of
        *dictionaries*) per attribute of *columns*, in that order
        (:meth:`EncodedTrie.from_columns`)."""
        self.dictionaries = tuple(dictionaries)
        self.trie = EncodedTrie.from_columns(
            name, columns, code_columns, count,
            [len(d) - 1 for d in self.dictionaries])
        self._rekeyed = None  #: last answer of trie_under: (wanted, trie)

    def trie_under(self, dictionaries: "dict[str, Dictionary]"
                   ) -> EncodedTrie:
        """The trie keyed by the global *dictionaries* (unions of this
        input's local ones with its peers'): the cached trie where they
        are its own, else a re-keyed copy — remembered for the next
        assembly over the same dictionaries. Asking for its own leaves
        that memo as it was."""
        wanted = tuple(dictionaries[a] for a in self.trie.order)
        if wanted == self.dictionaries:  # element-wise identity
            return self.trie
        memo = self._rekeyed
        if memo is None or memo[0] != wanted:  # element-wise identity
            # A union no larger than the local domain is that domain.
            tables = [None if len(merged) == len(local)
                      else list(map(merged.codes.__getitem__, local.values))
                      for merged, local in zip(wanted, self.dictionaries)]
            memo = self._rekeyed = (wanted, self.trie.rekeyed(tables)
                                    if any(tables) else self.trie)
        return memo[1]


def encoded_input(cache: dict, key: tuple, columns: tuple[str, ...],
                  build) -> tuple[EncodedInput, bool]:
    """(the artefact of input *key* under *columns*, whether this call
    built it — ``build(local)``, *local* being the input's dictionaries
    by attribute, shared by its column orders and filled as they are
    made). *cache* lives and dies with the input: its artefact dict,
    its view's ``derived``."""
    found = cache.get((*key, columns))
    if found is not None:
        return found, False
    built = cache[(*key, columns)] = build(
        cache.setdefault((*key, "dictionaries"), {}))
    return built, True


def relation_artefacts(relation: Relation) -> dict:
    """*relation*'s artefact dict (``relation.artefacts``), created on
    first use: the artefacts of its rows — the one column pass
    ``"columns"`` with its dictionaries, ``"stats"``, and one
    :class:`EncodedInput` per column order. They live exactly as long
    as the relation (one *version*: updates mint new objects, holding
    ``"inherited"`` until their pass, :func:`inherit_dictionaries`), and
    none refers back to it."""
    artefacts = relation.artefacts
    if artefacts is None:
        artefacts = relation.artefacts = {}
    return artefacts


def inherit_dictionaries(successor: Relation, predecessor: Relation
                         ) -> None:
    """Hand *successor*, the next version of *predecessor*, the
    predecessor's column dictionaries — only those: no code column, no
    trie — for :func:`relation_columns` to reuse where a column's domain
    is unchanged. A predecessor that was never encoded passes on what it
    inherited, so a burst of writes with no read between them still
    carries them."""
    artefacts = predecessor.artefacts or {}
    columns = artefacts.get("columns")
    inherited = artefacts.get("inherited") if columns is None else {
        attribute: column[0] for attribute, column in columns.items()}
    if inherited:
        relation_artefacts(successor)["inherited"] = inherited


def relation_columns(relation: Relation
                     ) -> "dict[str, tuple[Dictionary, list[int], int]]":
    """The one cold pass over *relation* (one version), cached with its
    other artefacts: its rows read column by column, in C, and per
    attribute (the local dictionary, which every column order's
    :func:`relation_input` shares; the code column, row-aligned across
    attributes and made of the dictionary's own int objects; the row
    count of its most frequent code); a dictionary inherited over the
    same domain (:func:`inherit_dictionaries`) is kept as it stands.
    The planner's statistics are a view of it
    (:func:`repro.engine.planner.cached_relation_stats`)."""
    artefacts = relation_artefacts(relation)
    found = artefacts.get("columns")
    if found is None:
        inherited = artefacts.get("inherited", {})
        found = {}
        for position, attribute in enumerate(relation.schema.attributes):
            values = list(map(itemgetter(position), relation.rows))
            counts = Counter(values)  # the domain, with each value's rows
            dictionary = inherited.get(attribute)
            if dictionary is None or len(dictionary) != len(counts) \
                    or not all(map(dictionary.codes.__contains__, counts)):
                dictionary = Dictionary(attribute, set(counts))
            found[attribute] = (
                dictionary, list(map(dictionary.codes.__getitem__, values)),
                max(counts.values(), default=0))
        # Published whole, and the first of racing threads wins.
        found = artefacts.setdefault("columns", found)
        artefacts.pop("inherited", None)
        artefacts.setdefault(("dictionaries",), {}).update(
            (attribute, column[0]) for attribute, column in found.items())
    return found


def relation_input(relation: Relation, order: Sequence[str]
                   ) -> tuple[EncodedInput, bool]:
    """:func:`encoded_input` of *relation*, columns as in *order*: its
    :func:`relation_columns` in that order."""
    columns = relation.schema.restrict_order(order)

    def build(_local: "dict[str, Dictionary]") -> EncodedInput:
        coded = list(map(relation_columns(relation).__getitem__, columns))
        return EncodedInput(
            relation.name, columns, [column[0] for column in coded],
            [column[1] for column in coded], len(relation))

    return encoded_input(relation_artefacts(relation), (), columns, build)


class EncodedInstance:
    """What a :class:`JoinAlgorithm` runs on: cached inputs, assembled.
    Of its query it keeps ``name``, the output ``attributes`` (default:
    the order), the ``relations`` and twig bindings (``twigs``: the
    baseline reads them; the relational kernels refuse any), never the
    query object: one a query's statistics hold never pins it."""

    __slots__ = ("name", "order", "attributes", "dictionaries", "tries",
                 "participation", "relations", "twigs", "twig_filters",
                 "erase_structural", "built", "_level_values")

    def __init__(self, name: str, order: tuple[str, ...],
                 dictionaries: dict[str, Dictionary],
                 tries: list[EncodedTrie], *,
                 relations: Sequence[Relation] = (),
                 attributes: "Sequence[str] | None" = None,
                 twigs: "Sequence[TwigBinding]" = (),
                 twig_filters: TwigFilters | None = None,
                 erase_structural: bool = False):
        self.name = name
        self.order = order
        self.attributes = order if attributes is None else tuple(attributes)
        self.dictionaries = dictionaries
        self.tries = tries
        self.relations = list(relations)
        self.twigs = tuple(twigs)
        self.twig_filters = twig_filters
        self.erase_structural = erase_structural
        #: Per trie: did assembly build (True) or find (False) its artefact?
        self.built: tuple[bool, ...] = ()
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
    def _assemble(cls, name: str, order: tuple[str, ...],
                  inputs: "Sequence[tuple[EncodedInput, bool]]",
                  **carried) -> "EncodedInstance":
        """The one construction path: merge the inputs' local
        dictionaries and key every cached trie by the result."""
        binders: dict[str, dict[int, Dictionary]] = {}
        for artefact, _built in inputs:
            for attribute, local in zip(artefact.trie.order,
                                        artefact.dictionaries):
                binders.setdefault(attribute, {})[id(local)] = local
        # A twig's inputs share one dictionary per identity-bound
        # attribute: one binder, nothing to merge.
        dictionaries = {
            attribute: merge_dictionaries(list(local.values()))
            if len(local) > 1 else next(iter(local.values()))
            for attribute, local in binders.items()}
        instance = cls(name, order, dictionaries,
                       [artefact.trie_under(dictionaries)
                        for artefact, _built in inputs], **carried)
        instance.built = tuple(built for _artefact, built in inputs)
        return instance

    @classmethod
    def from_relations(cls, relations: Sequence[Relation],
                       order: Sequence[str] | None = None, *,
                       name: str = "Q") -> "EncodedInstance":
        """Encode a purely relational natural-join query."""
        resolved = _global_order([r.schema.attributes for r in relations],
                                 order)
        return cls._assemble(
            name, resolved,
            [relation_input(relation, resolved) for relation in relations],
            relations=relations)

    @classmethod
    def reference(cls, query: "MultiModelQuery") -> "EncodedInstance":
        """A trie-less instance for operators that evaluate from the
        source inputs (the baseline foil): carries the query's inputs,
        builds no dictionaries or tries."""
        return cls(query.name, (), {}, [], relations=query.relations,
                   attributes=query.attributes, twigs=query.twigs)

    @classmethod
    def from_query(cls, query: "MultiModelQuery",
                   order: Sequence[str], *,
                   validate_structure: bool = True,
                   points: "dict[str, str | None] | None" = None,
                   tested: "str | None" = None) -> "EncodedInstance":
        """Encode a multi-model query: relations, the twigs' decomposed
        root-leaf path relations and their A-D pair inputs, all over
        shared dictionaries, plus the per-level structure checks.

        ``order`` must already be resolved (see
        :func:`repro.engine.planner.attribute_order`).
        ``validate_structure=False`` encodes the paper's relaxed value
        join instead: path relations only, no pair inputs, no checks.
        ``points`` and ``tested``, a plan's ``validation`` and
        ``tested`` for this query and order, are derived if not given.
        """
        from repro.core.decomposition import twig_input
        from repro.core.validation import (
            StructureValidator,
            tested_attribute,
            validation_points,
        )

        expansion = tuple(order)
        structural = {binding.name: query.structural_attributes(binding)
                      for binding in query.twigs}
        inputs = [relation_input(relation, expansion)
                  for relation in query.relations]
        for binding in query.twigs:
            decomposition = multimodel._decomposition(binding.twig)
            atoms = decomposition.paths + (
                decomposition.pairs if validate_structure else ())
            inputs += [twig_input(binding.document, atom,
                                  structural[binding.name], expansion)
                       for atom in atoms]
        instance = cls._assemble(
            query.name, expansion, inputs, relations=query.relations,
            attributes=query.attributes, twigs=query.twigs,
            erase_structural=any(structural.values()))

        filters = TwigFilters(checks=[[] for _ in expansion])
        if validate_structure:
            filters.validated_at = validation_points(query, expansion) \
                if points is None else points
            for binding in query.twigs:
                attribute = filters.validated_at[binding.name]
                if attribute is None:
                    continue
                names = binding.twig.attributes
                validator = StructureValidator(
                    binding.document, binding.twig,
                    [instance.dictionaries[a].values for a in names])
                filters.checks[expansion.index(attribute)].append(
                    (tuple(expansion.index(a) for a in names), validator))
        filters.tested = tested_attribute(
            query, expansion, filters.validated_at) \
            if points is None else tested
        instance.twig_filters = filters
        return instance

    # -- helpers for algorithms -------------------------------------------

    def has_empty_input(self) -> bool:
        """Any empty input empties the whole join — a zero-arity one too:
        FALSE holds no ``()``, while TRUE (the one row ``()``) is
        neutral."""
        return any(not (trie.root.keys if trie.depth else trie.size)
                   for trie in self.tries)

    def decode_row(self, codes: Sequence[int]) -> tuple[Value, ...]:
        """Decode one code row over the global order into values."""
        return tuple(values[code]
                     for values, code in zip(self._level_values, codes))

    def decode_value(self, level: int, code: int) -> Value:
        """Decode one code through the named level's dictionary."""
        return self._level_values[level][code]

    def result_relation(self, result: "tuple[Sequence[Sequence[int]], list]",
                        attributes: "Sequence[str] | None" = None,
                        name: str | None = None) -> Relation:
        """Decode a kernel's result — (one code column per level of
        ``order``, parallel; the chunks left unexpanded at the last
        level, see :func:`repro.engine.algorithms._frontier_join`) —
        into a relation over *attributes* (a permutation of the order;
        default: the order itself).

        Column-wise throughout: each picked column is one
        :func:`~repro.buffers.layout.gather` from its level's decode
        table (surrogates erased there, not row by row, when the
        instance erases structural attributes) and one C-level
        transpose makes the rows, whose arity is right by construction.
        A *tested* attribute (``twig_filters.tested``) has no codes to
        decode: its column is ``None`` throughout. No column at all is
        the zero-arity join of inputs none of which is empty
        (:meth:`has_empty_input`): TRUE.

        An unexpanded chunk (its fan-out reached the kernel's
        ``_FAN_OUT`` crossover) is built entry by entry: each prefix
        column is gathered once over the live entries, the last level's
        codes once in a row and cut per entry, and one
        ``itertools.product`` per entry makes its rows, in the order of
        *attributes*, straight into the one ``frozenset``.
        """
        attributes = self.order if attributes is None else tuple(attributes)
        tables = self._level_values
        if self.erase_structural:  # identities live in NodeDictionary only
            tables = [getattr(self.dictionaries.get(attribute), "_erased",
                              None) or values
                      for attribute, values in zip(self.order, tables)]
        tested = self.twig_filters.tested if self.twig_filters else None
        levels = [self.order.index(attribute) for attribute in attributes]
        columns, factored = result
        rows = zip(*[repeat(None, len(columns[level]))
                     if self.order[level] == tested
                     else gather(tables[level], columns[level])
                     for level in levels]) if levels else [()]
        blocks, last = [rows], len(self.order) - 1
        for prefix, commons, counts in factored:
            if 0 in counts:  # a dead entry makes no row: not decoded
                prefix = [list(compress(col, counts)) for col in prefix]
                counts = list(filter(None, counts))
            # One gather of the last level's codes, cut per entry.
            ends = list(accumulate(counts))
            decoded = map(gather(tables[last], list(chain.from_iterable(
                commons))).__getitem__, map(slice, [0, *ends], ends))
            blocks.append(chain.from_iterable(map(product, *[
                decoded if level == last
                else zip(gather(tables[level], prefix[level]))
                for level in levels])))
        return Relation.trusted(name or self.name, Schema(attributes),
                                frozenset(chain.from_iterable(blocks)))

    def __repr__(self) -> str:
        return (f"EncodedInstance({self.name!r}, order={list(self.order)!r}, "
                f"{len(self.tries)} tries)")
