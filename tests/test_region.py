import random
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smdc.exactlp as exactlp
import smdc.region as region
from smdc.region import (
    MAX_MEMBERSHIP_GROUND,
    SubsetCoefficients,
    audit_level,
    f_alpha,
    f_profile,
    f_value,
    greedy_allocation,
    min_sum_rate,
    smdc_member,
    smdca_hyperplane,
    smdca_member,
    ssmdc_member,
)
from smdc.subsets import EncoderSet

from oracles import (
    LE,
    brute_lp_max,
    fraction_audit_level,
    fraction_rate_split,
    g_m,
    greedy_matches_region,
    packing_lp,
    slice_f_value,
    smdca_f,
    subset_system_member,
)

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
        _, lp = packing_lp(lam, alpha)
        assert exactlp.solve_max(lp).value == f_value(lam, alpha)

    # few distinct values, so zeros and ties among the weights are common
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.builds(F, st.sampled_from([0, 0, 1, 2, 3, 12]), st.sampled_from([1, 2, 3])),
            min_size=1,
            max_size=8,
        )
    )
    @example([F(0)] * 5)
    @example([F(1)] * 8)
    @example([F(9), F(1), F(0), F(0)])
    def test_layout_is_an_optimal_packing(self, lam):
        for alpha in range(1, len(lam) + 1):
            packing = f_alpha(lam, alpha)
            _, lp = packing_lp(lam, alpha)
            assert packing.total == exactlp.solve_max(lp).value
            assert all(len(u) == alpha for u in packing.assignment)
            assert all(v > 0 for v in packing.assignment.values())
            for l, cap in enumerate(lam, 1):
                assert sum(v for u, v in packing.assignment.items() if l in u) <= cap
            assert len(packing.assignment) <= len(lam)

    # few distinct values, so zeros and ties among the weights are common
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.builds(F, st.sampled_from([0, 0, 1, 2, 3]), st.sampled_from([1, 2, 3])),
            min_size=1,
            max_size=10,
        )
    )
    @example([F(0)] * 4)
    @example([F(1)] * 5)
    def test_suffix_sums_match_slice_sums(self, lam):
        for alpha in range(1, len(lam) + 1):
            assert f_value(lam, alpha) == slice_f_value(lam, alpha)

    def test_lp_checked_against_closed_form(self, monkeypatch):
        monkeypatch.setattr(region, "f_value", lambda lam, alpha: F(-1))
        with pytest.raises(AssertionError, match="total differs from the optimum"):
            f_alpha((1, 1, 1), 2)

    def test_a_bad_layout_is_refused(self, monkeypatch):
        # one encoder named twice on a cut shrinks its subset below alpha
        monkeypatch.setattr(region, "bisect_right", lambda ends, p: 0)
        with pytest.raises(AssertionError, match="subset of another size"):
            f_alpha((1, 1, 1), 2)

    def test_audit_reports_a_subset_of_another_size(self):
        lam = (F(1), F(1), F(1))
        coeffs = SubsetCoefficients({EncoderSet((1, 2), 3): F(1), EncoderSet((3,), 3): F(1, 2)})
        failures = ["level 2: subset of another size"]
        assert audit_level(lam, 2, coeffs) == failures
        assert fraction_audit_level(lam, 2, coeffs) == failures


class TestLpFree:
    """f_alpha lays its packing out from the closed form: it solves no LP
    and enumerates no level, so it answers at any ground size."""

    @pytest.fixture(autouse=True)
    def _no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("f_alpha reached an LP or a level enumeration")

        for name in ("solve_max", "feasible", "subsets_of_size"):
            monkeypatch.setattr(region, name, refuse)

    @pytest.mark.parametrize(
        "lam,alpha",
        [((0,), 1), ((1, 1, 1), 2), ((0, 0, 0), 3), ((5, 1, 1, 0), 2), ((1, 0, 0), 2)],
    )
    def test_small(self, lam, alpha):
        assert f_alpha(lam, alpha).total == f_value(lam, alpha)

    def test_twenty_four_encoders_at_level_twelve(self):
        rng = random.Random(24)
        lam = [F(rng.randint(1, 500), rng.randint(1, 9)) for _ in range(24)]
        lam[3] = F(10**6)  # one encoder heavier than f_12, so in every subset
        packing = f_alpha(lam, 12)
        assert packing.total == f_value(lam, 12)
        assert 0 < len(packing.assignment) <= 24
        assert all(EncoderSet((4,), 24).mask & u.mask for u in packing.assignment)


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


class TestOneSortProfile:
    """f_profile sorts once and compares integer suffix sums; it must equal
    the definition level by level, and f_value must equal each level."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.builds(F, st.sampled_from([0, 0, 1, 2, 3, 5]), st.sampled_from([1, 2, 3, 4])),
            min_size=1,
            max_size=24,
        )
    )
    @example([F(0)] * 24)
    @example([F(1)] * 24)
    @example([F(7, 3)] + [F(0)] * 23)
    def test_profile_matches_slices(self, lam):
        want = tuple(slice_f_value(lam, a) for a in range(1, len(lam) + 1))
        assert f_profile(lam) == want
        assert tuple(f_value(lam, a) for a in range(1, len(lam) + 1)) == want


def tied_member_query(rng, scheme, L):
    """Rates around the superposition point, often tied, and entropies
    that are often zero, so both verdicts and every tie-break occur."""
    n = rng.randint(1, L - 1) if scheme == "secure" and L > 1 else 0
    h = [
        F(0) if rng.random() < 0.3 else F(rng.randint(1, 12), rng.randint(1, 4))
        for _ in range(L - n)
    ]
    point = sum((e / a for a, e in enumerate(h, 1)), F(0))
    rates = []
    for _ in range(L):
        if rates and rng.random() < 0.4:
            rates.append(rng.choice(rates))
        else:
            rates.append(point * F(rng.randint(50, 150), 100) + F(rng.randint(0, 2), 4))
    r0 = F(rng.randint(0, 8), rng.randint(1, 4)) if scheme == "all-access" else None
    return rates, h, n, r0


def vertex_from(seed):
    """A feasibility solver that returns the optimum of a seeded random
    objective: other vertices than the dual phase's, so Robin Hood transfers
    run."""

    def solve(lp):
        rnd = random.Random(seed)
        lp.objective = [F(rnd.randint(0, 3)) for _ in range(lp.num_vars)]
        sol = exactlp.solve_max(lp)
        return exactlp.FeasibilityResult(sol.status == "optimal", sol.primal, sol.certificate)

    return solve


class TestIntegerRateSplit:
    """The rate split on integer numerators must give the `Fraction` split's
    verdict, witness and certificate exactly."""

    @pytest.mark.parametrize("scheme", ["plain", "secure", "all-access"])
    def test_verdicts_match_the_fraction_split(self, scheme):
        rng = random.Random(f"split-{scheme}")
        verdicts = set()
        for L in list(range(1, MAX_MEMBERSHIP_GROUND + 1)) * 2:
            rates, h, n, r0 = tied_member_query(rng, scheme, L)
            got = decide(scheme, rates, h, n, r0)
            with mock.patch.object(region, "_rate_split", fraction_rate_split):
                want = decide(scheme, rates, h, n, r0)
            assert got == want
            if got.witness is not None:
                assert list(got.witness) == list(want.witness)
            verdicts.add(got.member)
        assert verdicts == {True, False}

    def test_transfers_match_the_fraction_split(self):
        rng = random.Random(5)
        for trial in range(60):
            L = rng.randint(1, 6)
            rates, h, _, _ = tied_member_query(rng, "plain", L)
            r = exactlp.as_fractions(rates)
            levels = range(1, L + 1)
            with mock.patch.object(region, "feasible", vertex_from(trial)):
                got = region._rate_split(r, h, levels)
            assert got == fraction_rate_split(r, h, levels, solve=vertex_from(trial))


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

    def test_hyperplane_is_g_m_at_zero_budget(self):
        rng = random.Random(16)
        for _ in range(40):
            L = rng.randint(1, 6)
            lam = [rand_frac(rng) for _ in range(L)]
            h = [rand_frac(rng) for _ in range(L)]
            for m in range(1, L + 1):
                assert smdca_hyperplane(m, lam, h) == g_m(m, lam, h, 0)

    @pytest.mark.parametrize(
        "m,lam,h",
        [(0, (1, 1), (1, 1)), (3, (1, 1), (1, 1)), (1, (1, 1), (1,)),
         (1, (1, -1), (1, 1)), (1, (1, 1), (1, -1)), (1, (), ())],
    )
    def test_hyperplane_rejects_bad_input(self, m, lam, h):
        with pytest.raises(ValueError):
            smdca_hyperplane(m, lam, h)


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


def check_verdict(verdict, rates, entropies, n_secure=0, r0=None):
    """Exact check of what backs a verdict: a member's witness covers
    every alpha-subset at every level within the rates, a non-member's
    certificate violates its (all-access) hyperplane.  Up to L=12 every
    alpha-subset is summed; past it, the one with the least sum, the
    alpha smallest shares, since C(24, 12) subsets are too many."""
    L = len(rates)
    levels = range(1, L - n_secure + 1)
    caps = tuple(rates) if r0 is None else (r0,) + tuple(rates)
    shift = len(caps) - L
    if verdict.member:
        w = verdict.witness
        assert set(w) == set(levels)
        for alpha, h in zip(levels, entropies):
            x = w[alpha]
            assert len(x) == len(caps) and all(v >= 0 for v in x)
            base = x[0] if shift else 0
            shares = x[shift:]
            if L <= 12:
                subsets = combinations(range(L), alpha)
            else:
                subsets = [sorted(range(L), key=shares.__getitem__)[:alpha]]
            for u in subsets:
                assert base + sum(shares[l] for l in u) >= h
        for slot, cap in enumerate(caps):
            assert sum(w[a][slot] for a in levels) <= cap
        return
    lam = verdict.certificate
    assert len(lam) == L and all(v >= 0 for v in lam)
    lhs = sum(a * b for a, b in zip(lam, rates))
    prof = [f_value(lam, a) for a in levels]
    if r0 is None:
        assert max(lam) == 1
        assert lhs < sum(f * h for f, h in zip(prof, entropies))
    else:
        lam0 = verdict.certificate_lambda0
        assert max(tuple(lam) + (lam0,)) == 1
        rhs = sum(min(f, lam0) * h for f, h in zip(prof, entropies))
        assert lam0 * r0 + lhs < rhs


def decide(scheme, rates, entropies, n_secure, r0):
    if scheme == "plain":
        return smdc_member(rates, entropies)
    if scheme == "secure":
        return ssmdc_member(rates, entropies, n_secure)
    return smdca_member(r0, rates, entropies)


small = st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3]))


@st.composite
def member_queries(draw):
    """Rates and entropies from a small grid, so that ties and zeros are
    common; all-access budgets sometimes cover every source."""
    L = draw(st.integers(1, 6))
    scheme = draw(st.sampled_from(["plain", "secure", "all-access"]))
    n = draw(st.integers(0, L - 1)) if scheme == "secure" else 0
    rates = draw(st.lists(small, min_size=L, max_size=L))
    h = draw(st.lists(small.map(lambda x: x / 2), min_size=L - n, max_size=L - n))
    r0 = None
    if scheme == "all-access":
        r0 = draw(st.one_of(small, small.map(lambda x: sum(h) + x)))
    return scheme, rates, h, n, r0


class TestMembershipProperties:
    @settings(max_examples=40, deadline=None)
    @given(member_queries())
    @example(("plain", [F(1)], [F(1)], 0, None))
    @example(("plain", [F(0)], [F(1)], 0, None))
    @example(("secure", [F(2)] * 4, [F(1)], 3, None))
    @example(("plain", [F(1)] * 4, [F(0)] * 4, 0, None))
    @example(("plain", [F(0), F(2), F(2), F(2)], [F(1), F(1), F(0), F(1)], 0, None))
    @example(("all-access", [F(0)] * 3, [F(1)] * 3, 0, F(3)))
    @example(("all-access", [F(1), F(1), F(1, 2)], [F(1)] * 3, 0, F(7)))
    def test_verdict_witness_and_certificate(self, query):
        scheme, rates, h, n, r0 = query
        levels = range(1, len(rates) - n + 1)
        verdict = decide(scheme, rates, h, n, r0)
        assert verdict.member == subset_system_member(rates, h, levels, r0)
        check_verdict(verdict, rates, h, n, r0)

    @settings(max_examples=80, deadline=None)
    @given(member_queries(), st.randoms(use_true_random=False))
    def test_witness_from_any_vertex(self, query, rnd):
        # the dual phase's vertex rarely loads an encoder past its rate, so the
        # Robin Hood transfers are steered into work by other vertices
        scheme, rates, h, n, r0 = query
        with mock.patch.object(region, "feasible", vertex_from(rnd.random())):
            verdict = decide(scheme, rates, h, n, r0)
        assert verdict.member == decide(scheme, rates, h, n, r0).member
        check_verdict(verdict, rates, h, n, r0)


def cap_queries(scheme, member, L=MAX_MEMBERSHIP_GROUND):
    """A query at L encoders whose verdict is known: members dominate the
    superposition point sum_alpha H_alpha / alpha of the constraining
    levels (of the greedy residual, for all-access), non-members sum to
    9/10 of it, so the uniform hyperplane fails."""
    rng = random.Random(L)
    n = 3 if scheme == "secure" else 0
    h = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(L - n)]
    r0 = h[0] + h[1] / 2 if scheme == "all-access" else None
    residual = h if r0 is None else greedy_allocation(r0, h).residual
    point = sum(x / a for a, x in enumerate(residual, 1))
    if member:
        rates = [point + F(rng.randint(0, 8), 4) for _ in range(L)]
    else:
        rates = [point * F(9, 10) + F(2 * l - L + 1, 40) for l in range(L)]
    return rates, h, n, r0


class TestMembershipCap:
    @pytest.mark.parametrize("scheme", ["plain", "secure", "all-access"])
    @pytest.mark.parametrize("member", [True, False])
    def test_verdict_at_the_cap(self, scheme, member):
        rates, h, n, r0 = cap_queries(scheme, member)
        verdict = decide(scheme, rates, h, n, r0)
        assert verdict.member is member
        check_verdict(verdict, rates, h, n, r0)

    def test_above_the_cap(self):
        L = MAX_MEMBERSHIP_GROUND + 1
        with pytest.raises(ValueError):
            smdc_member([1] * L, [1] * L)
        with pytest.raises(ValueError):
            ssmdc_member([1] * L, [1] * (L - 1), 1)
        with pytest.raises(ValueError):
            smdca_member(1, [1] * L, [1] * L)
