"""Tests for the dictionary-encoding layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.dictionary import (
    Dictionary,
    merge_dictionaries,
    sort_values,
)
from repro.errors import EngineError
from repro.relational.relation import Relation
from repro.relational.schema import sort_key


class DictionaryBuilder:
    """Accumulates attribute domains across inputs, then freezes them.

    The from-scratch way to a query's global dictionaries, and the
    reference :func:`merge_dictionaries` (which merges cached local
    ones) must agree with: :meth:`add_rows` every input, then
    :meth:`build` once.
    """

    def __init__(self):
        self._domains = {}

    def add_rows(self, attributes, rows):
        """Widen the named attributes' domains with already-gathered rows."""
        domains = [self._domains.setdefault(a, set()) for a in attributes]
        for row in rows:
            for domain, value in zip(domains, row):
                domain.add(value)

    def build(self):
        """Freeze the gathered domains into per-attribute dictionaries."""
        return {attribute: Dictionary(attribute, domain)
                for attribute, domain in self._domains.items()}

mixed_values = st.one_of(
    st.integers(-50, 50),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=6),
    st.binary(max_size=4),
    st.none(),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
)


class TestSortValues:
    """One sort rule for every dictionary: the plain sort where it
    agrees with ``sort_key``, the keyed one elsewhere."""

    @given(st.one_of(
        st.lists(st.integers()), st.lists(st.text()),
        st.lists(st.one_of(st.booleans(), st.integers(),
                           st.floats(allow_nan=False))),
        st.lists(mixed_values)))
    def test_order_is_sort_keys(self, values):
        domain = set(values)
        assert sort_values(domain) == sorted(domain, key=sort_key)

    def test_empty_domain(self):
        assert sort_values(()) == [] and Dictionary("a", ()).values == ()


class TestDictionary:
    def test_round_trip_mixed_types(self):
        domain = [3, "b", 1.5, None, "a", 7, b"x", (1, 2)]
        d = Dictionary("a", domain)
        for value in domain:
            assert d.decode(d.encode(value)) == value

    def test_codes_are_dense_and_value_ordered(self):
        d = Dictionary("a", ["z", 10, 2, "a"])
        assert sorted(d.codes.values()) == [0, 1, 2, 3]
        assert list(d.values) == sorted(d.values, key=sort_key)
        # code order == value order, pairwise.
        for small, large in zip(d.values, d.values[1:]):
            assert d.encode(small) < d.encode(large)

    def test_duplicates_collapse(self):
        d = Dictionary("a", [1, 1, 2, 2, 2])
        assert len(d) == 2

    def test_unknown_value_raises(self):
        d = Dictionary("a", [1, 2])
        with pytest.raises(EngineError):
            d.encode(99)

    def test_out_of_range_code_raises(self):
        d = Dictionary("a", [1])
        with pytest.raises(EngineError):
            d.decode(5)

    def test_contains(self):
        d = Dictionary("a", ["x"])
        assert "x" in d
        assert "y" not in d

    @given(st.sets(mixed_values, max_size=30))
    def test_round_trip_random_domains(self, domain):
        d = Dictionary("a", domain)
        assert len(d) == len(domain)
        decoded = {d.decode(code) for code in range(len(d))}
        assert decoded == set(domain)


class TestDictionaryBuilder:
    def test_domains_shared_across_inputs(self):
        r = Relation("R", ("a", "b"), [(1, "x"), (2, "y")])
        builder = DictionaryBuilder()
        builder.add_rows(r.schema.attributes, r.rows)
        builder.add_rows(("a",), [(3,), (1,), (4,)])
        dictionaries = builder.build()
        assert set(dictionaries) == {"a", "b"}
        assert set(dictionaries["a"].values) == {1, 2, 3, 4}
        assert set(dictionaries["b"].values) == {"x", "y"}

    def test_same_value_same_code_across_sources(self):
        """The join property: one dictionary per attribute means a value
        encodes identically no matter which input contributed it."""
        r = Relation("R", ("a",), [(1,), (2,)])
        s = Relation("S", ("a",), [(2,), (3,)])
        builder = DictionaryBuilder()
        builder.add_rows(r.schema.attributes, r.rows)
        builder.add_rows(s.schema.attributes, s.rows)
        d = builder.build()["a"]
        assert d.encode(2) == d.encode(2)
        assert set(d.values) == {1, 2, 3}


class TestMergeDictionaries:
    def test_equal_domains_keep_the_first_dictionary(self):
        first, peer = Dictionary("a", [1, 2]), Dictionary("a", [2, 1])
        assert merge_dictionaries([first]) is first
        assert merge_dictionaries([first, peer]) is first

    def test_union_is_what_the_builder_gives_and_is_remembered(self):
        first, peer = Dictionary("a", [1, "x"]), Dictionary("a", ["x", 7])
        merged = merge_dictionaries([first, peer])
        builder = DictionaryBuilder()
        builder.add_rows(("a",), [(1,), ("x",), (7,)])
        assert merged.values == builder.build()["a"].values == (1, 7, "x")
        assert merge_dictionaries([first, peer]) is merged
        # One slot: another peer set replaces the remembered answer.
        other = merge_dictionaries([first, Dictionary("a", [0])])
        assert other.values == (0, 1, "x")
        assert merge_dictionaries([first, peer]) is not merged

    def test_a_local_that_holds_the_union_is_the_union(self):
        held = Dictionary("a", [1, 2, 3, "x"])
        for local in ([Dictionary("a", [2, "x"]), held],
                      [held, Dictionary("a", [3])],
                      [Dictionary("a", [1]), Dictionary("a", [2]), held]):
            assert merge_dictionaries(local) is held
            assert merge_dictionaries(local) is held  # remembered
        # A value no local holds needs a new one.
        assert merge_dictionaries([Dictionary("a", [0]), held]).values \
            == (0, 1, 2, 3, "x")

    def test_local_codes_map_monotonically_into_the_union(self):
        local = Dictionary("a", [5, "u", None])
        merged = merge_dictionaries([local, Dictionary("a", [1, 9, "z"])])
        table = [merged.encode(value) for value in local.values]
        assert table == sorted(table)

