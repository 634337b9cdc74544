import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smdc.region as region
from smdc.region import (
    f_alpha,
    f_profile,
    f_value,
    g_m,
    greedy_allocation,
    greedy_matches_region,
    min_sum_rate,
    smdc_member,
    smdca_f,
    smdca_hyperplane,
    smdca_member,
    ssmdc_member,
)
from smdc.subsets import EncoderSet

from oracles import LE, brute_lp_max

F = Fraction


def rand_frac(rng, num=8, den=4):
    return F(rng.randint(0, num), rng.randint(1, den))


class TestFAlpha:
    def test_uniform_weights_level_two(self):
        coeffs = f_alpha((1, 1, 1), 2)
        assert coeffs.total == F(3, 2)
        assert set(coeffs.assignment.values()) == {F(1, 2)}

    def test_uniform_closed_form(self):
        for L in range(1, 7):
            prof = f_profile([1] * L)
            assert prof == tuple(F(L, a) for a in range(1, L + 1))

    def test_skewed_weights_against_oracle(self):
        coeffs = f_alpha((2, 1, 1), 2)
        assert coeffs.total == 2
        _, value = brute_lp_max(
            [1, 1, 1],
            [[1, 1, 0], [1, 0, 1], [0, 1, 1]],
            [LE, LE, LE],
            [2, 1, 1],
            3,
        )
        assert value == 2

    def test_zero_blocking_weight(self):
        assert f_alpha((1, 0, 0), 2).total == 0

    def test_level_one_equals_weights(self):
        lam = (F(2), F(1, 3), F(0), F(5, 2))
        coeffs = f_alpha(lam, 1)
        for u, v in coeffs.assignment.items():
            assert v == lam[u.members[0] - 1]

    def test_alpha_out_of_range(self):
        for f in (f_alpha, f_value):
            with pytest.raises(ValueError):
                f((1, 1), 3)
            with pytest.raises(ValueError):
                f((1, 1), 0)
            with pytest.raises(ValueError):
                f((1, -1), 1)
            with pytest.raises(ValueError):
                f((), 1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3])),
            min_size=1,
            max_size=7,
        ),
        st.data(),
    )
    def test_closed_form_matches_lp(self, lam, data):
        alpha = data.draw(st.integers(1, len(lam)))
        assert f_alpha(lam, alpha).total == f_value(lam, alpha)

    def test_lp_checked_against_closed_form(self, monkeypatch):
        monkeypatch.setattr(region, "f_value", lambda lam, alpha: F(-1))
        with pytest.raises(AssertionError):
            f_alpha((1, 1, 1), 2)


class TestFProfile:
    def test_uniform_four(self):
        assert f_profile((1, 1, 1, 1)) == (4, 2, F(4, 3), 1)

    def test_skewed(self):
        assert f_profile((2, 1, 1)) == (4, 2, 1)

    def test_zero(self):
        assert f_profile((0, 0, 0)) == (0, 0, 0)

    def test_monotone_and_scaling_random(self):
        rng = random.Random(7)
        for _ in range(40):
            L = rng.randint(2, 5)
            lam = [rand_frac(rng) for _ in range(L)]
            prof = f_profile(lam)
            assert all(a >= b for a, b in zip(prof, prof[1:]))
            assert prof[-1] >= 0
            assert prof[0] == sum(lam)
            t = rand_frac(rng, 5, 3)
            assert f_profile([t * x for x in lam]) == tuple(t * p for p in prof)


class TestMinSumRate:
    def test_three_unit_sources(self):
        assert min_sum_rate((1, 1, 1)) == F(11, 2)

    def test_zero(self):
        assert min_sum_rate((0, 0, 0, 0)) == 0

    def test_top_priority_only(self):
        assert min_sum_rate((1, 0, 0, 0)) == 4


class TestSmdcMember:
    def test_two_encoder_region_matches_hand_elimination(self):
        # by hand, for H=(1,1) the region is R1>=1, R2>=1, R1+R2>=3
        grid = [F(0), F(1, 2), F(1), F(7, 5), F(3, 2), F(2), F(3)]
        for r1 in grid:
            for r2 in grid:
                expected = r1 >= 1 and r2 >= 1 and r1 + r2 >= 3
                verdict = smdc_member((r1, r2), (1, 1))
                assert verdict.member == expected, (r1, r2)

    def test_member_with_witness(self):
        verdict = smdc_member((2, 1), (1, 1))
        assert verdict.member
        w = verdict.witness
        # witness realizes the per-level recovery constraints exactly
        assert w[1][0] >= 1 and w[1][1] >= 1
        assert w[2][0] + w[2][1] >= 1

    def test_non_member_certificate(self):
        verdict = smdc_member((F(7, 5), F(7, 5)), (1, 1))
        assert not verdict.member
        lam = verdict.certificate
        assert max(lam) == 1
        # the uniform weight vector separates this point as well
        assert F(7, 5) + F(7, 5) < 3

    def test_symmetric_point_member(self):
        rng = random.Random(11)
        for _ in range(10):
            L = rng.randint(2, 4)
            h = [rand_frac(rng) for _ in range(L)]
            point = sum(h[a - 1] / a for a in range(1, L + 1))
            assert smdc_member([point] * L, h).member

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            smdc_member((1, 1), (1, 1, 1))


class TestSmdcaF:
    def test_zero_budget_weight(self):
        assert smdca_f(0, (1, 1, 1), 2) == 0

    def test_saturated(self):
        lam = (1, 2, 1)
        for a in (1, 2, 3):
            assert smdca_f(100, lam, a) == f_alpha(lam, a).total

    def test_binding(self):
        assert smdca_f(F(5, 4), (1, 1, 1), 2) == F(5, 4)


class TestSmdcaMember:
    def test_boundary_member(self):
        verdict = smdca_member(F(1, 2), (1, 1), (1, 1))
        assert verdict.member

    def test_store_everything_at_zero(self):
        verdict = smdca_member(2, (0, 0), (1, 1))
        assert verdict.member

    def test_non_member_with_pair_certificate(self):
        verdict = smdca_member(F(1, 2), (F(9, 10), F(9, 10)), (1, 1))
        assert not verdict.member
        assert verdict.certificate_m in (1, 2)
        assert verdict.certificate_lambda0 is not None
        m, lam, lam0 = (
            verdict.certificate_m,
            verdict.certificate,
            verdict.certificate_lambda0,
        )
        prof = f_profile(lam)
        lhs = prof[m - 1] * F(1, 2) + sum(
            a * b for a, b in zip(lam, (F(9, 10), F(9, 10)))
        )
        rhs = smdca_hyperplane(m, lam, (1, 1))
        assert lhs < rhs
        assert max(tuple(lam) + (lam0,)) == 1

    def test_reduces_to_greedy_residual(self):
        rng = random.Random(31)
        for _ in range(40):
            L = rng.randint(2, 4)
            h = [rand_frac(rng, 4, 3) for _ in range(L)]
            r = [rand_frac(rng, 8, 4) for _ in range(L)]
            r0 = rand_frac(rng, 6, 3)
            alloc = greedy_allocation(r0, h)
            verdict = smdca_member(r0, r, h)
            assert verdict.member == smdc_member(r, alloc.residual).member
            if verdict.member:
                slot0 = tuple(verdict.witness[a][0] for a in range(1, L + 1))
                assert slot0 == alloc.stored_at_zero
            else:
                lam, lam0 = verdict.certificate, verdict.certificate_lambda0
                assert verdict.certificate_m == alloc.level
                assert lam0 == f_value(lam, alloc.level)
                assert max(tuple(lam) + (lam0,)) == 1

    def test_hyperplane_m_one_uniform(self):
        h = (1, F(1, 2), F(3, 4))
        assert smdca_hyperplane(1, (1, 1, 1), h) == min_sum_rate(h)

    def test_hyperplane_m_L(self):
        lam = (2, 1, 1)
        h = (1, 1, 1)
        assert smdca_hyperplane(3, lam, h) == f_profile(lam)[-1] * 3

    def test_hyperplane_two_encoders(self):
        assert smdca_hyperplane(1, (1, 1), (1, 1)) == 3


class TestGreedy:
    def test_split_inside_first_source(self):
        alloc = greedy_allocation(F(1, 2), (1, 1))
        assert alloc.level == 1
        assert alloc.stored_at_zero == (F(1, 2), 0)
        assert alloc.residual == (F(1, 2), 1)

    def test_split_inside_second_source(self):
        alloc = greedy_allocation(F(3, 2), (1, 1))
        assert alloc.level == 2
        assert alloc.stored_at_zero == (1, F(1, 2))
        assert alloc.residual == (0, F(1, 2))

    def test_budget_covers_everything(self):
        alloc = greedy_allocation(5, (1, 1))
        assert alloc.level is None
        assert alloc.residual == (0, 0)

    def test_g_values(self):
        assert g_m(1, (1, 1), (1, 1), F(1, 2)) == 2
        assert g_m(2, (1, 1), (1, 1), F(1, 2)) == F(3, 2)
        assert greedy_matches_region((1, 1), (1, 1), F(1, 2))

    def test_budget_exhausts_sources(self):
        h = (1, 1)
        assert g_m(2, (1, 1), h, 2) == 0
        assert greedy_matches_region((1, 1), h, 2)

    def test_zero_budget_max_at_first_level(self):
        lam = (1, 1, 1)
        h = (1, 1, 1)
        values = [g_m(m, lam, h, 0) for m in (1, 2, 3)]
        assert max(values) == values[0]
        assert greedy_matches_region(lam, h, 0)

    def test_matches_region_random(self):
        rng = random.Random(23)
        for _ in range(25):
            L = rng.randint(2, 4)
            lam = [rand_frac(rng) for _ in range(L)]
            h = [rand_frac(rng) for _ in range(L)]
            total = sum(h)
            r0 = rand_frac(rng, 6, 3)
            if r0 > total + 1:
                r0 = total + 1
            assert greedy_matches_region(lam, h, r0)


class TestSsmdcMember:
    def test_n_zero_matches_plain(self):
        rng = random.Random(5)
        for _ in range(8):
            L = rng.randint(2, 3)
            h = [rand_frac(rng, 4, 2) for _ in range(L)]
            r = [rand_frac(rng, 6, 2) for _ in range(L)]
            assert (
                ssmdc_member(r, h, 0).member == smdc_member(r, h).member
            )

    def test_symmetric_point(self):
        assert ssmdc_member((F(3, 2), F(3, 2), F(3, 2)), (1, 1), 1).member

    def test_level_one_forces_each_rate(self):
        verdict = ssmdc_member((1, 1, F(9, 10)), (1,), 2)
        assert not verdict.member

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            ssmdc_member((1, 1, 1), (1, 1, 1), 1)
