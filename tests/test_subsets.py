import copy
import pickle
import re
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smdc.subsets import (
    MAX_ENUMERATION_GROUND,
    EncoderSet,
    format_subset,
    parse_subset,
    subsets_of_size,
    windows,
)

from oracles import complement


def members(sets):
    return [s.members for s in sets]


@st.composite
def encoder_sets(draw, max_ground=10):
    L = draw(st.integers(1, max_ground))
    return EncoderSet.of(draw(st.lists(st.integers(1, L), unique=True)), L)


class TestSubsetsOfSize:
    def test_three_choose_two(self):
        assert members(subsets_of_size(3, 2)) == [(1, 2), (1, 3), (2, 3)]

    def test_full_set(self):
        assert members(subsets_of_size(3, 3)) == [(1, 2, 3)]

    def test_counts(self):
        assert len(subsets_of_size(5, 2)) == 10

    def test_lexicographic(self):
        got = members(subsets_of_size(6, 3))
        assert got == sorted(got)
        assert len(set(got)) == len(got)

    @pytest.mark.parametrize("L,a", [(0, 1), (3, 0), (3, 4), (25, 2)])
    def test_range_errors(self, L, a):
        with pytest.raises(ValueError):
            subsets_of_size(L, a)

    def test_the_returned_list_is_the_callers(self):
        got = subsets_of_size(5, 2)
        got.reverse()
        got[0] = EncoderSet((1,), 5)
        got.append(None)
        del got[1]
        assert members(subsets_of_size(5, 2)) == list(combinations(range(1, 6), 2))


class TestWindow:
    def test_wraparound(self):
        assert windows(3, 2)[2].members == (1, 3)

    def test_singleton(self):
        assert windows(4, 1)[0].members == (1,)

    def test_full_window(self):
        assert windows(4, 4)[1].members == (1, 2, 3, 4)

    def test_windows_by_definition(self):
        # the window at start l holds l, l+1, ..., l+a-1, each taken mod L
        # into 1..L
        for L in range(1, MAX_ENUMERATION_GROUND + 1):
            for a in range(1, L + 1):
                want = [
                    EncoderSet.of({(l + i - 1) % L + 1 for i in range(a)}, L)
                    for l in range(1, L + 1)
                ]
                got = windows(L, a)
                assert got == want
                assert [w.members for w in got] == [w.members for w in want]

    @pytest.mark.parametrize("L,a,message", [
        (0, 1, "ground size must be in 1..24, got 0"),
        (25, 1, "ground size must be in 1..24, got 25"),
        (3, 0, "length must be in 1..3, got 0"),
        (3, 4, "length must be in 1..3, got 4"),
    ])
    def test_range_errors(self, L, a, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            windows(L, a)

    def test_distinct_below_full_length(self):
        for L in range(2, 9):
            for a in range(1, L):
                ws = windows(L, a)
                assert len({w.members for w in ws}) == L

    def test_full_length_all_equal(self):
        for L in range(1, 9):
            ws = windows(L, L)
            assert all(w.members == tuple(range(1, L + 1)) for w in ws)

    def test_two_children_inside_window_family(self):
        # each window of length 2..L-1 has exactly two children that are
        # themselves windows: same start, and start shifted by one
        for L in range(3, 8):
            for a in range(2, L):
                smaller = {w.members for w in windows(L, a - 1)}
                shorter = windows(L, a - 1)
                for l, u in enumerate(windows(L, a)):
                    in_family = [
                        c.members for c in u.children() if c.members in smaller
                    ]
                    expected = {shorter[l].members, shorter[(l + 1) % L].members}
                    assert set(in_family) == expected
                    assert len(in_family) == 2


class TestParentsChildren:
    def test_children_example(self):
        u = EncoderSet((1, 2, 3), 3)
        assert members(u.children()) == [(1, 2), (1, 3), (2, 3)]

    def test_children_pair(self):
        u = EncoderSet((2, 4), 5)
        assert members(u.children()) == [(2,), (4,)]

    def test_children_count(self):
        for a in range(2, 6):
            u = EncoderSet(tuple(range(1, a + 1)), 8)
            assert len(u.children()) == a

    def test_size_errors(self):
        with pytest.raises(ValueError):
            EncoderSet((1,), 3).children()


class TestEncoderSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderSet((2, 1), 3)
        with pytest.raises(ValueError):
            EncoderSet((1, 1), 3)
        with pytest.raises(ValueError):
            EncoderSet((4,), 3)

    @pytest.mark.parametrize("members", [(0,), (0, 1), (-2, 1)])
    def test_index_below_one_is_named(self, members):
        with pytest.raises(ValueError, match=f"^encoder index {members[0]} is below 1$"):
            EncoderSet(members, 3)

    @pytest.mark.parametrize("index", [1.9, 2.5, F(3, 2)])
    def test_of_refuses_an_index_that_is_no_whole_number(self, index):
        # int() would read 1.9 as encoder 1
        with pytest.raises(ValueError, match=f"^encoder index {re.escape(repr(index))} is not a whole number$"):
            EncoderSet.of([index, 3], 3)

    def test_of_reads_whole_numbers_of_any_type(self):
        assert EncoderSet.of([2.0, "1", F(3)], 3) == EncoderSet((1, 2, 3), 3)
        assert EncoderSet.of((m for m in (3, 1)), 3) == EncoderSet((1, 3), 3)

    def test_membership(self):
        u = EncoderSet.of([3, 1], 4)
        assert u.members == (1, 3)
        assert 1 in u and 3 in u and 2 not in u

    @given(st.integers(1, 10), st.data())
    def test_mask_matches_members(self, L, data):
        size = data.draw(st.integers(0, L))
        picks = data.draw(
            st.lists(st.integers(1, L), min_size=size, max_size=size, unique=True)
        )
        u = EncoderSet.of(picks, L)
        for e in range(1, L + 1):
            assert (e in u) == (e in picks)


class TestEncoderSetIdentity:
    """A set is its (mask, ground size): equality and hashing follow
    (members, ground size), and every way of making a set gives the mask
    of its members."""

    @given(encoder_sets(), encoder_sets())
    def test_equality_and_hash_follow_members(self, u, v):
        for w in (v, EncoderSet(tuple(u.members), u.ground_size)):
            same = (u.members, u.ground_size) == (w.members, w.ground_size)
            assert (u == w) is same and (u != w) is not same
            if same:
                assert hash(u) == hash(w)
                assert {u: 1}[w] == 1

    @given(encoder_sets())
    def test_other_ground_size_is_another_set(self, u):
        other = EncoderSet(u.members, u.ground_size + 1)
        assert other != u and u != other
        assert other.mask == u.mask
        assert len({u, other}) == 2

    @given(encoder_sets(), st.data())
    def test_mask_on_every_path(self, u, data):
        L = u.ground_size
        made = [
            u,
            EncoderSet(tuple(u.members), L),
            EncoderSet.of(reversed(u.members), L),
            parse_subset(format_subset(u), L),
            complement(u),
            windows(L, data.draw(st.integers(1, L)))[data.draw(st.integers(0, L - 1))],
            EncoderSet(u.members, L + 1),
            EncoderSet(complement(u).members, L),
            pickle.loads(pickle.dumps(u)),
            copy.copy(u),
            copy.deepcopy(u),
        ]
        for v in made[1:4] + made[-3:]:
            assert v == u and hash(v) == hash(u)
        if len(u) >= 2:
            made += u.children()
        for v in made:
            assert v.mask == sum(1 << m for m in v.members)


class TestNotation:
    def test_format(self):
        assert format_subset(EncoderSet((1, 2), 3)) == "1,2"
        assert format_subset(EncoderSet((), 3)) == "-"

    @given(st.integers(1, 8), st.data())
    def test_round_trip(self, L, data):
        picks = data.draw(st.lists(st.integers(1, L), unique=True))
        u = EncoderSet.of(picks, L)
        assert parse_subset(format_subset(u), L) == u
