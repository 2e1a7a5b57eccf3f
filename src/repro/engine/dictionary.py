"""Dictionary encoding: dense integer codes per attribute domain.

The engine's first layer. A :class:`Dictionary` maps a set of values to
``0..k-1`` in the mixed-type total order of
:func:`repro.relational.schema.sort_key`, so **code order equals value
order**: trie levels sorted by code are sorted by value, leapfrog seeks
compare plain ints, and hashed descent probes int-keyed dicts instead of
hashing heterogeneous Python objects.

Every *input* column owns a **local** dictionary, built once per input
version (:class:`repro.engine.encoded.EncodedInput`): a relation's in
its one column pass (:func:`repro.engine.encoded.relation_columns`), a
twig path position's its tag's, shared by every input over it. A query's
**global** dictionary for an attribute is the union of the binders'
local ones (:func:`merge_dictionaries`): equal values get equal codes
across inputs, so intersection on codes is intersection on values, and
the local -> global code map is monotone (both sort by one key).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import count

from repro.errors import EngineError
from repro.relational.schema import Value, sort_key

#: Types ``sorted`` orders among themselves as :func:`sort_key` does:
#: each set is one of its ranks (``bool`` folds into the numbers).
_ONE_RANK = (frozenset((bool, int, float)), frozenset((str,)))


def sort_values(values: Iterable[Value]) -> list[Value]:
    """Distinct *values* in :func:`sort_key` order: a plain ``sorted``
    when all share one rank (all numbers, or all strings), the keyed
    sort — one ``sort_key`` call per value — only otherwise."""
    values = list(values)
    types = set(map(type, values))
    values.sort(key=None if any(map(types.issubset, _ONE_RANK))
                else sort_key)
    return values


class Dictionary:
    """An immutable value <-> code bijection for one attribute domain.

    >>> d = Dictionary("a", ["x", 3, 1])
    >>> [d.decode(c) for c in range(len(d))]
    [1, 3, 'x']
    >>> d.encode(3)
    1
    """

    __slots__ = ("attribute", "values", "codes", "_merged", "_erased")

    def __init__(self, attribute: str, domain: Iterable[Value]):
        self.attribute = attribute
        if not isinstance(domain, (set, frozenset)):
            domain = set(domain)
        #: Domain values, positionally indexed by code, in sort_key order.
        self.values: tuple[Value, ...] = tuple(sort_values(domain))
        #: The inverse mapping (value -> code).
        self.codes: dict[Value, int] = dict(zip(self.values, count()))
        self._merged = None  #: last merge_dictionaries answer led by this
        self._erased = None  #: NodeDictionary: ``values``, identities erased

    @classmethod
    def of_sorted(cls, attribute: str, values: tuple) -> "Dictionary":
        """Over *values*, distinct and in :func:`sort_key` order already:
        code i is ``values[i]``, nothing is sorted again."""
        self = cls.__new__(cls)
        self.attribute, self.values, self._merged, self._erased = (
            attribute, values, None, None)
        self.codes = dict(zip(values, count()))
        return self

    def encode(self, value: Value) -> int:
        """The code of *value*; raises :class:`EngineError` if unknown."""
        try:
            return self.codes[value]
        except KeyError:
            raise EngineError(
                f"value {value!r} is not in the encoded domain of "
                f"attribute {self.attribute!r}") from None

    def decode(self, code: int) -> Value:
        """The value behind *code*."""
        try:
            return self.values[code]
        except IndexError:
            raise EngineError(
                f"code {code!r} is outside the encoded domain of "
                f"attribute {self.attribute!r} (size {len(self.values)})"
            ) from None

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: object) -> bool:
        return value in self.codes

    def __repr__(self) -> str:
        return f"Dictionary({self.attribute!r}, {len(self.values)} values)"


def _holds_the_rest(widest: Dictionary,
                    local: "Sequence[Dictionary]") -> bool:
    """Whether *widest* holds every value of the other *local* ones."""
    holds = widest.codes.__contains__
    return all(all(map(holds, other.values)) for other in local
               if other is not widest)


def merge_dictionaries(local: "Sequence[Dictionary]") -> Dictionary:
    """The global dictionary over the union of one attribute's *local*
    domains (one per input binding it): a local one that already holds
    the union as it stands, else a new one, so a union that adds
    nothing keeps the codes (and the tries keyed by them) of the input
    that holds it. The answer is remembered on the first for exactly
    these peers — one slot, so changing peers never accumulate — and a
    repeated merge is a handful of identity checks."""
    first, peers = local[0], tuple(local[1:])
    memo = first._merged
    if memo is not None and memo[0] == peers:  # element-wise identity
        merged = memo[1]
    elif all(peer.values == first.values for peer in peers):
        merged = None
    elif _holds_the_rest(widest := max(local, key=len), local):
        merged = None if widest is first else widest
    else:
        merged = Dictionary(first.attribute, set(first.values).union(
            *(peer.values for peer in peers)))
    # None stands for *first*: a self-reference would be a cycle.
    first._merged = (peers, merged)
    return first if merged is None else merged
