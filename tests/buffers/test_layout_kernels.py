"""Layout helpers and batch kernels: widths, widening, galloping,
2-way and k-way intersection."""

import random
from array import array
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.kernels import gallop, intersect_many, intersect_pair
from repro.buffers.layout import (
    as_list,
    delete,
    is_buffer,
    list_backend,
    make,
    pack,
    set_at,
    shift_from,
    shift_tail,
    splice,
    typecode_for,
)


class TestTypecodes:
    def test_unsigned_width_boundaries(self):
        assert typecode_for(0) == "B"
        assert typecode_for(255) == "B"
        assert typecode_for(256) == "H"
        assert typecode_for(65535) == "H"
        assert typecode_for(65536) == "I"
        assert typecode_for(2 ** 32 - 1) == "I"
        assert typecode_for(2 ** 32) == "Q"

    def test_signed_ladder_for_negative_lo(self):
        assert typecode_for(10, -1) == "b"
        assert typecode_for(127, -128) == "b"
        assert typecode_for(128, -1) == "h"
        assert typecode_for(2 ** 31, -1) == "q"

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            typecode_for(2 ** 64)

    def test_pack_picks_narrowest(self):
        for hi, tc in ((200, "B"), (300, "H"), (70_000, "I"),
                       (2 ** 33, "Q")):
            buf = pack([0, 1, hi])
            assert isinstance(buf, array) and buf.typecode == tc
        assert pack([5, -1, 3]).typecode == "b"

    def test_pack_empty_respects_bounds(self):
        assert pack([]).typecode == "B"
        assert pack([], hi=70_000).typecode == "I"

    def test_list_backend_forces_lists(self):
        with list_backend():
            assert pack([1, 2, 3]) == [1, 2, 3]
            assert make("H") == []
            assert not is_buffer(pack([1]))
        assert is_buffer(pack([1, 2, 3]))
        assert is_buffer(make("H"))


class TestWidening:
    @pytest.mark.parametrize("start_hi,grow_to,tc_before,tc_after", [
        (200, 300, "B", "H"),           # 8 -> 16 bit
        (60_000, 70_000, "H", "I"),     # 16 -> 32 bit
        (2 ** 31, 2 ** 33, "I", "Q"),   # 32 -> 64 bit
    ])
    def test_splice_widens_across_boundary(self, start_hi, grow_to,
                                           tc_before, tc_after):
        buf = pack([1, 2, start_hi])
        assert buf.typecode == tc_before
        out = splice(buf, 3, 3, [grow_to])
        assert out.typecode == tc_after
        assert as_list(out) == [1, 2, start_hi, grow_to]
        # In-width splices mutate in place (same object back).
        again = splice(out, 0, 1, [0])
        assert again is out

    def test_set_at_widens(self):
        buf = pack([3, 9, 400])
        wider = set_at(buf, 0, 100_000)
        assert wider.typecode == "I" and wider[0] == 100_000

    def test_shift_helpers(self):
        buf = pack([10, 20, 30, 40])
        buf = shift_tail(buf, 2, +5)
        assert as_list(buf) == [10, 20, 35, 45]
        buf = shift_from(buf, 0, 35, -5)
        assert as_list(buf) == [10, 20, 30, 40]
        buf = shift_tail(buf, 3, 300)  # widens B -> H
        assert buf.typecode == "H" and buf[3] == 340

    def test_delete(self):
        buf = pack([1, 2, 3, 4, 5])
        buf = delete(buf, 1, 3)
        assert as_list(buf) == [1, 4, 5]

    def test_helpers_accept_lists(self):
        buf = [1, 2, 3]
        assert splice(buf, 1, 2, [7, 8]) == [1, 7, 8, 3]
        assert shift_tail([1, 2], 0, 10) == [11, 12]
        assert shift_from([5, 1, 7], 0, 5, 2) == [7, 1, 9]
        assert set_at([1, 2], 1, 9) == [1, 9]


class TestGallop:
    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=60),
           st.integers(min_value=0, max_value=500),
           st.integers(min_value=0, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_bisect_from_cursor(self, values, code, cursor):
        keys = sorted(set(values))
        cursor = min(cursor, len(keys))
        assert gallop(keys, code, cursor) == \
            bisect_left(keys, code, cursor, len(keys))

    def test_works_over_all_representations(self):
        data = [2, 4, 8, 16, 32]
        packed = pack(data)
        view = memoryview(packed)
        for seq in (data, packed, view):
            assert gallop(seq, 9) == 3
            assert gallop(seq, 2) == 0
            assert gallop(seq, 33) == 5


class TestIntersectMany:
    @given(st.lists(
        st.lists(st.integers(min_value=0, max_value=120), max_size=50),
        min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_set_intersection(self, families):
        sorted_inputs = [sorted(set(family)) for family in families]
        expected = sorted(set.intersection(*map(set, sorted_inputs)))
        codes, probes = intersect_many([pack(s, hi=120)
                                        for s in sorted_inputs])
        assert as_list(codes) == expected
        assert probes >= 0

    def test_two_and_three_way_paths_agree(self):
        rng = random.Random(11)
        a = sorted(rng.sample(range(3000), 400))
        b = sorted(rng.sample(range(3000), 350))
        c = sorted(rng.sample(range(3000), 300))
        two, _ = intersect_many([pack(a), pack(b)])
        assert as_list(two) == sorted(set(a) & set(b))
        three, _ = intersect_many([pack(a), pack(b), pack(c)])
        assert as_list(three) == sorted(set(a) & set(b) & set(c))

    def test_representation_of_result_follows_inputs(self):
        codes, _ = intersect_many([pack([1, 2, 3]), pack([2, 3, 4])])
        assert isinstance(codes, array)
        codes, _ = intersect_many([[1, 2, 3], [2, 3]])
        assert isinstance(codes, list)

    def test_empty_input(self):
        codes, probes = intersect_many([pack([]), pack([1, 2])])
        assert as_list(codes) == [] and probes == 0

    def test_no_buffers(self):
        codes, probes = intersect_many([])
        assert as_list(codes) == [] and probes == 0

    def test_three_way_basic(self):
        codes, probes = intersect_many([pack([1, 3, 5, 7]), pack([3, 4, 5]),
                                        pack([1, 3, 5])])
        assert as_list(codes) == [3, 5] and probes > 0

    def test_three_way_disjoint(self):
        codes, _ = intersect_many([pack([1, 2]), pack([3, 4]),
                                   pack([1, 2, 3, 4])])
        assert as_list(codes) == []

    def test_single_buffer_is_copied(self):
        src = pack([1, 2, 3])
        codes, probes = intersect_many([src])
        assert as_list(codes) == [1, 2, 3] and probes == 3
        assert codes is not src

    def test_two_way_probes_stop_past_the_larger_buffer(self):
        # 50 lies beyond the larger buffer's last key: the scan stops
        # there, after probing 1 and 50.
        codes, probes = intersect_many([pack([1, 50, 60]),
                                        pack([1, 2, 3, 4])])
        assert as_list(codes) == [1] and probes == 2

    def test_memoryview_inputs_give_an_array(self):
        a, b = pack([1, 2, 3]), pack([2, 3, 4, 5])
        codes, _ = intersect_many([memoryview(a), memoryview(b)])
        assert isinstance(codes, array) and as_list(codes) == [2, 3]


class TestIntersectPair:
    def test_basic_intersection(self):
        assert intersect_pair([1, 3, 5, 7], [3, 4, 5]) == [3, 5]

    def test_disjoint(self):
        assert intersect_pair([1, 2], [3, 4]) == []

    def test_identical(self):
        assert intersect_pair([2, 4], [2, 4]) == [2, 4]

    def test_empty_side(self):
        assert intersect_pair([], [1, 2]) == []
        assert intersect_pair([1, 2], []) == []

    def test_returns_a_list_over_every_representation(self):
        a, b = [1, 2, 3, 9], [2, 3, 4]
        for left in (a, pack(a), memoryview(pack(a))):
            for right in (b, pack(b), memoryview(pack(b))):
                out = intersect_pair(left, right)
                assert isinstance(out, list) and out == [2, 3]

    @given(st.lists(st.integers(min_value=0, max_value=80), max_size=40),
           st.lists(st.integers(min_value=0, max_value=80), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_set_intersection_either_way_round(self, a, b):
        a, b = sorted(set(a)), sorted(set(b))
        expected = sorted(set(a) & set(b))
        assert intersect_pair(a, b) == expected
        assert intersect_pair(b, a) == expected
        assert intersect_pair(pack(a, hi=80), pack(b, hi=80)) == expected
