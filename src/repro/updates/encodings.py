"""Delta-maintained encoded instances (dictionaries + tries).

The engine encodes each input once per *version* (frozen, cached tries);
a single-tuple change mints a new version, and re-encoding that input —
dictionary sort plus a full trie build — dominates the cost of the
change. An :class:`IncrementalInstance` keeps its own dictionaries
(:class:`~repro.updates.dictionary.IncrementalDictionary`, append-only
code assignment) and per-input tries alive across updates, splicing
single encoded rows in and out.

When any attribute's appended-code overflow crosses the remap threshold
the instance compacts: the dictionary re-sorts and every trie binding
that attribute is re-encoded through the old-code -> new-code remap
(rows are recovered from the tries themselves, so no input rescan).

The relational kernels (``generic_join``, ``leapfrog``) run unchanged
over :meth:`as_encoded` — they need sorted-by-code key lists and
cross-input code equality, both maintained here — so a query over the
maintained instance skips the whole encode phase.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.engine.encoded import EncodedInstance, EncodedTrie, _global_order
from repro.engine.interface import get_algorithm
from repro.errors import UpdateError
from repro.instrumentation import JoinStats
from repro.relational.relation import Relation
from repro.relational.schema import Value
from repro.updates.dictionary import IncrementalDictionary


class IncrementalInstance:
    """Shared dictionaries + one maintained trie per input relation."""

    def __init__(self, name: str,
                 inputs: Sequence[Relation],
                 order: Sequence[str] | None = None, *,
                 overflow_threshold: float = 0.25):
        self.name = name
        self.order = _global_order([r.schema.attributes for r in inputs],
                                   order)
        self.overflow_threshold = overflow_threshold
        self.version = 0
        self.compactions = 0
        self.dictionaries: dict[str, IncrementalDictionary] = {
            attribute: IncrementalDictionary(attribute)
            for attribute in self.order}
        for relation in inputs:
            for position, attribute in enumerate(relation.schema):
                dictionary = self.dictionaries[attribute]
                for row in relation.rows:
                    dictionary.learn(row[position])
        for dictionary in self.dictionaries.values():
            dictionary.compact()  # initial state: sorted, zero overflow
        #: input name -> (trie, positions of the trie order in the
        #: input's schema order).
        self.tries: dict[str, tuple[EncodedTrie, tuple[int, ...]]] = {}
        for relation in inputs:
            trie_order = relation.schema.restrict_order(self.order)
            positions = relation.schema.positions(trie_order)
            dictionaries = [self.dictionaries[a] for a in trie_order]
            encoded = [
                tuple(d.codes[row[p]]
                      for p, d in zip(positions, dictionaries))
                for row in relation.rows]
            self.tries[relation.name] = (
                EncodedTrie(relation.name, trie_order, encoded),
                tuple(positions))

    # -- delta application ---------------------------------------------------

    def _encode(self, name: str, row: Sequence[Value], *,
                learn: bool) -> "tuple[int, ...] | None":
        trie, positions = self.tries[name]
        dictionaries = self.dictionaries
        if learn:
            return tuple(dictionaries[a].learn(row[p])
                         for p, a in zip(positions, trie.order))
        codes = []
        for p, a in zip(positions, trie.order):
            code = dictionaries[a].encode_or_none(row[p])
            if code is None:
                return None  # value unseen: the row cannot be stored
            codes.append(code)
        return tuple(codes)

    def apply(self, name: str,
              added: Iterable[Sequence[Value]] = (),
              removed: Iterable[Sequence[Value]] = ()) -> None:
        """Splice row changes of input *name* into its maintained trie.

        Removals never unlearn dictionary codes (other inputs may share
        the value); compaction is checked once per batch.
        """
        entry = self.tries.get(name)
        if entry is None:
            raise UpdateError(
                f"unknown input {name!r}; "
                f"choose from {sorted(self.tries)!r}")
        trie = entry[0]
        for row in removed:
            codes = self._encode(name, tuple(row), learn=False)
            if codes is not None:
                trie.remove(codes)
        for row in added:
            codes = self._encode(name, tuple(row), learn=True)
            assert codes is not None
            trie.insert(codes)
        self.version += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        remaps: dict[str, list[int]] = {}
        for attribute, dictionary in self.dictionaries.items():
            if dictionary.needs_compaction(self.overflow_threshold):
                remaps[attribute] = dictionary.compact()
        if not remaps:
            return
        self.compactions += 1
        for name, (trie, positions) in self.tries.items():
            touched = [level for level, attribute in enumerate(trie.order)
                       if attribute in remaps]
            if not touched:
                continue
            level_remaps = [remaps.get(attribute)
                            for attribute in trie.order]
            rows = [tuple(code if remap is None else remap[code]
                          for code, remap in zip(row, level_remaps))
                    for row in trie.tuples()]
            self.tries[name] = (EncodedTrie(trie.name, trie.order, rows),
                                positions)

    def vacuum(self) -> None:
        """Full remap: drop dead dictionary values and restore code order.

        Threshold compaction re-sorts but keeps values no live row
        references (deletes never unlearn). Vacuuming re-derives the
        live domains from the tries themselves and rebuilds dictionaries
        and tries from them, after which every dictionary equals — code
        for code — one built from scratch over the current rows.
        """
        decoded: dict[str, list[tuple[Value, ...]]] = {}
        for name, (trie, _positions) in self.tries.items():
            dictionaries = [self.dictionaries[a] for a in trie.order]
            decoded[name] = [
                tuple(d.decode(code) for d, code in zip(dictionaries, row))
                for row in trie.tuples()]
        domains: dict[str, set[Value]] = {a: set() for a in self.order}
        for name, (trie, _positions) in self.tries.items():
            for row in decoded[name]:
                for attribute, value in zip(trie.order, row):
                    domains[attribute].add(value)
        self.dictionaries = {
            attribute: IncrementalDictionary(attribute, domain)
            for attribute, domain in domains.items()}
        for name, (trie, positions) in list(self.tries.items()):
            dictionaries = [self.dictionaries[a] for a in trie.order]
            rows = [tuple(d.codes[value]
                          for d, value in zip(dictionaries, row))
                    for row in decoded[name]]
            self.tries[name] = (EncodedTrie(trie.name, trie.order, rows),
                                positions)
        self.compactions += 1

    # -- execution -----------------------------------------------------------

    def as_encoded(self) -> EncodedInstance:
        """A kernel-ready view over the maintained dictionaries/tries.

        Cheap (no encode pass): only the participation map and the
        per-level decode tables are derived, per call, so they always
        reflect the current dictionary state.
        """
        return EncodedInstance(
            self.name, self.order,
            self.dictionaries,  # duck-compatible with Dictionary
            [trie for trie, _positions in self.tries.values()])

    def run(self, algorithm: str = "generic_join", *,
            stats: JoinStats | None = None) -> Relation:
        """Run a relational kernel over the maintained instance."""
        return get_algorithm(algorithm).run(self.as_encoded(), stats=stats)

    def __repr__(self) -> str:
        return (f"IncrementalInstance({self.name!r}, v{self.version}, "
                f"{len(self.tries)} tries, {self.compactions} compactions)")
