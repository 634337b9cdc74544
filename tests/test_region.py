import random
from fractions import Fraction
from itertools import accumulate, combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smdc.exactlp as exactlp
import smdc.region as region
from smdc.region import (
    MAX_MEMBERSHIP_GROUND,
    GreedyAllocation,
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
    chamber_member,
    fraction_audit_level,
    fraction_greedy_allocation,
    fraction_member,
    fraction_rate_split,
    g_m,
    greedy_matches_region,
    packing_optimum_is,
    reference_solve_max,
    scan_least_ratio,
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
        assert packing_optimum_is(lam, alpha, f_value(lam, alpha))

    def test_packing_oracle_pins_the_optimum(self):
        # weak duality from both sides: a value off by 10^-6 either way fails
        rng = random.Random(31)
        tiny = F(1, 10**6)
        for _ in range(30):
            lam = [rand_frac(rng) for _ in range(rng.randint(1, 6))]
            for alpha in range(1, len(lam) + 1):
                f = f_value(lam, alpha)
                assert packing_optimum_is(lam, alpha, f)
                assert not packing_optimum_is(lam, alpha, f + tiny)
                assert not packing_optimum_is(lam, alpha, f - tiny)

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
            assert packing_optimum_is(lam, alpha, packing.total)
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

        for name in ("feasible", "subsets_of_size"):
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


# integer weights with many zeros, with ties, or with one dominant weight
sweep_weights = st.one_of(
    st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]), min_size=1, max_size=24),
    st.lists(st.sampled_from([3, 3, 3, 4]), min_size=1, max_size=24),
    st.lists(st.integers(1, 4), min_size=1, max_size=24).flatmap(
        lambda w: st.integers(0, len(w) - 1).map(lambda i: w[:i] + [60 * len(w)] + w[i + 1 :])
    ),
)


class TestLeastRatioSweep:
    """One pointer sweep over the levels gives, level by level, the least j
    minimizing S_j / (alpha - j) that a scan over every j gives, and so does
    a sweep over one level."""

    @settings(max_examples=300, deadline=None)
    @given(sweep_weights)
    @example([0] * 24)
    @example([1] * 24)
    @example([1440] + [1] * 23)
    @example([5, 5, 0, 0])
    def test_sweep_matches_a_scan(self, w):
        ns = sorted(w, reverse=True)
        L = len(ns)
        sweep = region._least_ratios(ns, range(1, L + 1))
        for a in range(1, L + 1):
            assert sweep[a - 1] == scan_least_ratio(ns, a)
            assert region._least_ratios(ns, (a,)) == [sweep[a - 1]]


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
    """A feasibility solver that returns the oracle's optimum of a seeded
    random objective: other vertices than the dual phase's, so Robin Hood
    transfers run."""

    def solve(lp):
        rnd = random.Random(seed)
        sol = reference_solve_max(lp, [rnd.randint(0, 3) for _ in range(lp.num_vars)])
        found = sol.primal if sol.status == "optimal" else sol.certificate
        return exactlp.FeasibilityResult(
            sol.status == "optimal", sol.primal, sol.certificate,
            exactlp.over_common_denominator(found),
        )

    return solve


def scaled_split(rates, entropies, levels):
    """`fraction_rate_split` as `region._rate_split` is called, with the
    rates and the entropies each as (numerators, denominator)."""
    (rn, D), (hn, dh) = rates, entropies
    return fraction_rate_split([F(n, D) for n in rn], [F(n, dh) for n in hn], levels)


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
            with mock.patch.object(region, "_rate_split", scaled_split):
                want = decide(scheme, rates, h, n, r0)
            assert got == want
            if got.witness is not None:
                assert list(got.witness) == list(want.witness)
            verdicts.add(got.member)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("scheme", ["plain", "secure", "all-access"])
    def test_seeded_sweep_matches_the_fraction_split(self, scheme):
        # members a little above the superposition point, non-members at
        # 70-90% of it, every L from 3 to the cap
        rng = random.Random(f"sweep-{scheme}")
        for L in range(3, MAX_MEMBERSHIP_GROUND + 1):
            n = rng.randint(1, L - 1) if scheme == "secure" else 0
            h = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(L - n)]
            point = sum((x / a for a, x in enumerate(h, 1)), F(0))
            r0 = F(rng.randint(0, 8), rng.randint(1, 4)) if scheme == "all-access" else None
            for member in (True, False):
                if member:
                    rates = [point + F(rng.randint(0, 4), 8) for _ in range(L)]
                else:
                    rates = [point * F(rng.randint(70, 90), 100) for _ in range(L)]
                got = decide(scheme, rates, h, n, r0)
                with mock.patch.object(region, "_rate_split", scaled_split):
                    want = decide(scheme, rates, h, n, r0)
                assert got == want
                if member:
                    assert got.member and list(got.witness) == list(want.witness)

    def test_transfers_match_the_fraction_split(self):
        rng = random.Random(5)
        for trial in range(60):
            L = rng.randint(1, 6)
            rates, h, _, _ = tied_member_query(rng, "plain", L)
            r = exactlp.as_fractions(rates)
            levels = range(1, L + 1)
            qr, qh = exactlp.over_common_denominator(r), exactlp.over_common_denominator(h)
            with mock.patch.object(region, "feasible", vertex_from(trial)):
                got = region._rate_split(qr, qh, levels)
                if got[0] is not None:
                    # a member that dominates the split never reaches the
                    # LP: every member goes to the LP side itself
                    order = sorted(range(L), key=r.__getitem__)
                    rank = sorted(range(L), key=order.__getitem__)
                    sorted_rates = ([qr[0][l] for l in order], qr[1])
                    got = region._lp_split(sorted_rates, qh, levels, rank)
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

    @pytest.mark.parametrize("r0, rates, h, error, match", [
        # a float budget is refused before anything else is read
        (0.5, [1, 1], [1, 1], TypeError, "floats"),
        (-0.5, [], [-1], TypeError, "floats"),
        # malformed rates or entropies, before a negative budget
        (-1, [], [1], ValueError, "rates must be nonempty"),
        (-1, [1, 0.5], [1, 1], TypeError, "floats"),
        (-1, [1, -1], [1, 1], ValueError, "rates must be nonnegative"),
        (-1, [1, 1], [], ValueError, "entropies must be nonempty"),
        (-1, [1, 1], [1, -1], ValueError, "entropies must be nonnegative"),
        (-1, [1, 1], [1], ValueError, "one entry per constraining level"),
        (-1, [1] * (MAX_MEMBERSHIP_GROUND + 1), [1] * (MAX_MEMBERSHIP_GROUND + 1),
         ValueError, f"at most L={MAX_MEMBERSHIP_GROUND}"),
        # then the budget's sign
        (-1, [1, 1], [1, 1], ValueError, "r0 must be nonnegative"),
        ("-1/2", [0, 0], [0, 0], ValueError, "r0 must be nonnegative"),
    ])
    def test_error_precedence(self, r0, rates, h, error, match):
        with pytest.raises(error, match=match):
            smdca_member(r0, rates, h)

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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3])), min_size=1, max_size=8),
        st.sampled_from(["zero", "all", "above", "prefix", "any"]),
        st.data(),
    )
    def test_integer_split_matches_the_fraction_oracle(self, h, budget, data):
        total = sum(h, F(0))
        if budget == "zero":
            r0 = F(0)
        elif budget == "all":
            r0 = total
        elif budget == "above":
            r0 = total + data.draw(st.builds(F, st.integers(1, 5), st.integers(1, 4)))
        elif budget == "prefix":
            # the budget ends exactly where a source ends: a tie
            r0 = sum(h[: data.draw(st.integers(0, len(h)))], F(0))
        else:
            r0 = data.draw(st.builds(F, st.integers(0, 30), st.integers(1, 6)))
        alloc = greedy_allocation(r0, h)
        assert alloc == GreedyAllocation(*fraction_greedy_allocation(r0, h))
        assert all(type(x) is F for x in alloc.stored_at_zero + alloc.residual)

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


def superposition_queries(scheme, L):
    """Queries at L whose rates sit exactly at the superposition point of
    the constraining levels (of the greedy residual, for all-access), each
    with the witness that puts H_alpha / alpha of every level on every
    encoder.  Some entropies are zero, but the point is positive; for the
    secure scheme N = L - 1, where one level constrains, and a random N."""
    rng = random.Random(f"superposition-{scheme}-{L}")
    ns = sorted({L - 1, rng.randint(1, L - 1)}) if scheme == "secure" and L > 1 else [0]
    for n in ns:
        h = [F(0) if rng.random() < 0.3 else F(rng.randint(1, 12), rng.randint(1, 4))
             for _ in range(L - n)]
        h[0] = F(rng.randint(1, 12), rng.randint(1, 4))
        r0, residual, stored = None, h, None
        if scheme == "all-access":
            r0 = sum(h, F(0)) * F(rng.randint(0, 9), 10)
            alloc = greedy_allocation(r0, h)
            residual, stored = alloc.residual, alloc.stored_at_zero
        point = sum((x / a for a, x in enumerate(residual, 1)), F(0))
        witness = {a: (stored[a - 1:a] if stored else ()) + (x / a,) * L
                   for a, x in enumerate(residual, 1)}
        yield [point] * L, h, n, r0, witness


class TestSuperpositionStart:
    """The rate split's LP starts at the superposition split: there every
    prefix row has zero slack, and any rate below it is cut off."""

    @pytest.mark.parametrize("scheme", ["plain", "secure", "all-access"])
    def test_the_point_is_a_member_with_its_witness(self, scheme):
        for L in range(1, MAX_MEMBERSHIP_GROUND + 1):
            for rates, h, n, r0, witness in superposition_queries(scheme, L):
                verdict = decide(scheme, rates, h, n, r0)
                assert verdict.member and verdict.witness == witness, (L, n)
                check_verdict(verdict, rates, h, n, r0)

    @pytest.mark.parametrize("scheme", ["plain", "secure", "all-access"])
    def test_one_rate_lowered_is_cut_off(self, scheme):
        rng = random.Random(f"lowered-{scheme}")
        for L in range(1, MAX_MEMBERSHIP_GROUND + 1):
            for rates, h, n, r0, _ in superposition_queries(scheme, L):
                for eps in (F(1, 10**12), rates[0] * F(rng.randint(1, 100), 100)):
                    lowered = list(rates)
                    lowered[rng.randrange(L)] -= eps
                    verdict = decide(scheme, lowered, h, n, r0)
                    assert not verdict.member, (L, n, eps)
                    check_verdict(verdict, lowered, h, n, r0)

    @pytest.mark.parametrize("scheme", ["plain", "secure", "all-access"])
    def test_verdicts_match_the_sorted_chamber_lp(self, scheme):
        rng = random.Random(f"chamber-{scheme}")
        verdicts = set()
        for L in range(1, MAX_MEMBERSHIP_GROUND + 1):
            rates, h, n, r0 = tied_member_query(rng, scheme, L)
            verdict = decide(scheme, rates, h, n, r0)
            residual = h if r0 is None else greedy_allocation(r0, h).residual
            assert verdict.member == chamber_member(rates, residual, range(1, L - n + 1)), L
            check_verdict(verdict, rates, h, n, r0)
            verdicts.add(verdict.member)
        assert verdicts == {True, False}


class TestSuperpositionRecheck:
    """The superposition witness is re-checked on the numerators it is
    built from: a share one unit low misses its level's demand, and one
    unit high, with the lowest rate exactly at the point, exceeds it."""

    @pytest.mark.parametrize("scheme", ["plain", "secure", "all-access"])
    @pytest.mark.parametrize("step, message", [(-1, "misses a level demand"),
                                               (1, "exceeds an encoder rate")])
    def test_a_share_moved_by_one_unit_is_refused(self, scheme, step, message):
        real = region._superposition
        for L in (1, 2, 5, MAX_MEMBERSHIP_GROUND):
            for rates, h, n, r0, _ in superposition_queries(scheme, L):
                for level in range(L - n):

                    def moved(split, *args, level=level):
                        split = list(split)
                        split[level] += step
                        return real(split, *args)

                    with mock.patch.object(region, "_superposition", moved):
                        with pytest.raises(AssertionError, match=message):
                            decide(scheme, rates, h, n, r0)


def closed_form_queries(scheme, L):
    """Queries at L of three kinds, relative to the superposition split of
    the constraining levels (of the greedy residual, for all-access) and
    S_k = sum_{alpha <= k} H_alpha / alpha: "member" rates dominate the
    split; "hyperplane" rates break lambda = 1 on their k lowest rates,
    R_k < k S_k, at a chosen k < top whose level has a positive entropy (so
    that no lower k breaks) and at k = top; "gap" rates have their lowest
    rate below S_top and hold every such hyperplane.  Rates are shuffled,
    so that their sorted order is not their given one."""
    rng = random.Random(f"closed-{scheme}-{L}")
    n = rng.randint(1, L - 1) if scheme == "secure" and L > 1 else 0
    top = L - n
    h = [F(0) if rng.random() < 0.3 else F(rng.randint(1, 12), rng.randint(1, 4))
         for _ in range(top)]
    h[0] = F(rng.randint(1, 12), rng.randint(1, 4))
    r0 = sum(h, F(0)) * F(rng.randint(0, 9), 10) if scheme == "all-access" else None
    residual = h if r0 is None else greedy_allocation(r0, h).residual
    S = list(accumulate(x / a for a, x in enumerate(residual, 1)))
    big = L * S[-1] + 1  # above the split at any k: R_j >= j S_j past the low rates

    def query(kind, rates):
        rng.shuffle(rates)
        return kind, rates, h, n, r0

    yield query("member", [S[-1] + F(rng.randint(0, 3), 4) * (rng.random() < 0.5)
                           for _ in range(L)])
    positive = [k for k in range(1, top) if residual[k - 1]]
    for k in ([rng.choice(positive)] if positive else []) + [top]:
        # k rates just below S_k: above S_(k-1) when level k has entropy
        step = residual[k - 1] / k or S[-1]
        low = S[k - 1] - step * F(rng.randint(1, 99), 100)
        yield query("hyperplane", [low] * k + [big] * (L - k))
    if S[-1] > S[0]:
        # the lowest rate between S_1 and S_top, the rest at twice the split
        low = S[0] + (S[-1] - S[0]) * F(rng.randint(0, 99), 100)
        yield query("gap", [low] + [2 * S[-1] + F(rng.randint(0, 3), 4) for _ in range(L - 1)])
        # each rate as low as its hyperplane lets it, R_j >= j S_j for j up
        # to top, with a little slack: often a non-member
        tight = [low]
        for j in range(2, top + 1):
            need = j * S[j - 1] - sum(tight, F(0)) + F(rng.randint(0, 1), 8)
            tight.append(max(tight[-1], need))
        yield query("gap", tight + [max(tight[-1], S[-1])] * (L - top))


def closed_form_kind(rates, residual):
    """The kind of a query from its definition, in `Fraction`s."""
    r, top = sorted(rates), len(residual)
    S = list(accumulate(x / a for a, x in enumerate(residual, 1)))
    if r[0] >= S[-1]:
        return "member"
    if any(sum(r[:k]) < k * S[min(k, top) - 1] for k in range(1, len(r) + 1)):
        return "hyperplane"
    return "gap"


class TestClosedForms:
    """The rate split decides a rate vector that dominates the superposition
    split, and one that breaks a hyperplane of lambda = 1 on its k lowest
    rates, in closed form, with no LP; only the points between them build
    one.  Every answer must be the full LP's, entry-free hyperplane rows
    included, in verdict, witness and certificate."""

    @pytest.mark.parametrize("scheme", ["plain", "secure", "all-access"])
    def test_closed_forms_match_the_fraction_split(self, scheme):
        kinds, verdicts = set(), set()
        for L in range(1, MAX_MEMBERSHIP_GROUND + 1):
            for kind, rates, h, n, r0 in closed_form_queries(scheme, L):
                residual = h if r0 is None else greedy_allocation(r0, h).residual
                assert closed_form_kind(rates, residual) == kind, (L, rates)
                calls = []

                def counted(lp):
                    calls.append(lp)
                    return exactlp.feasible(lp)

                with mock.patch.object(region, "feasible", counted):
                    got = decide(scheme, rates, h, n, r0)
                assert len(calls) == (kind == "gap"), (L, kind)
                with mock.patch.object(region, "_rate_split", scaled_split):
                    want = decide(scheme, rates, h, n, r0)
                assert got == want, (L, kind)
                if got.member:
                    assert list(got.witness) == list(want.witness)
                assert got.member is (kind == "member") or kind == "gap"
                if kind == "hyperplane":
                    # lambda is carried by the k lowest rates alone
                    low = min(rates)
                    assert [x > 0 for x in got.certificate] == [x == low for x in rates]
                check_verdict(got, rates, h, n, r0)
                kinds.add(kind)
                verdicts.add((kind, got.member))
        assert kinds == {"member", "hyperplane", "gap"}
        assert ("gap", True) in verdicts and ("gap", False) in verdicts


def oracle_queries(scheme, L):
    """Closed-form queries at L, with entropies often zero or tied, and
    for all-access each of the budgets 0, H_1 + ... + H_q at a random q,
    the total, and above it.  Per budget, with S_k = sum_{alpha <= k}
    H_alpha / alpha of the constraining levels (of the greedy residual,
    for all-access): a member whose lowest rate is exactly S_top, the rest
    tied at it or above it; and, where some S_k > 0, a non-member whose k
    lowest rates are tied below S_k, the rest far above the split."""
    rng = random.Random(f"oracle-{scheme}-{L}")
    n = rng.randint(1, L - 1) if scheme == "secure" and L > 1 else 0
    top = L - n
    values = [F(0), F(rng.randint(1, 12), rng.randint(1, 4)), F(rng.randint(1, 12), 3)]
    h = [rng.choice(values) for _ in range(top)]
    budgets = [None]
    if scheme == "all-access":
        total = sum(h, F(0))
        budgets = [F(0), sum(h[: rng.randint(1, top)], F(0)), total,
                   total + F(rng.randint(1, 8), rng.randint(1, 4))]
    for r0 in budgets:
        residual = h if r0 is None else fraction_greedy_allocation(r0, h)[1]
        S = list(accumulate(x / a for a, x in enumerate(residual, 1)))
        rates = [S[-1]] + [S[-1] + F(rng.randint(0, 3), 4) * (rng.random() < 0.5)
                           for _ in range(L - 1)]
        rng.shuffle(rates)
        yield "member", rates, h, n, r0
        positive = [k for k in range(1, top + 1) if S[k - 1]]
        if positive:
            k = rng.choice(positive)
            rates = [S[k - 1] * F(rng.randint(1, 99), 100)] * k + [L * S[-1] + 1] * (L - k)
            rng.shuffle(rates)
            yield "hyperplane", rates, h, n, r0


class TestClosedFormsAgainstTheOracles:
    """A closed-form answer, built straight from the query's integers,
    must be the `Fraction` oracles' answer: the greedy split's, and the
    full LP's verdict, witness and certificate."""

    @pytest.mark.parametrize("scheme", ["plain", "secure", "all-access"])
    def test_verdict_witness_and_certificate(self, scheme):
        def no_lp(lp):
            raise AssertionError("a closed-form query built an LP")

        kinds = set()
        for L in range(1, MAX_MEMBERSHIP_GROUND + 1):
            for kind, rates, h, n, r0 in oracle_queries(scheme, L):
                if r0 is not None:
                    want = GreedyAllocation(*fraction_greedy_allocation(r0, h))
                    assert greedy_allocation(r0, h) == want, (L, r0)
                with mock.patch.object(region, "feasible", no_lp):
                    got = decide(scheme, rates, h, n, r0)
                want = fraction_member(rates, h, range(1, L - n + 1), r0)
                assert got == want, (L, kind, r0)
                assert got.member is (kind == "member")
                if got.member:
                    assert list(got.witness) == list(want.witness)
                    values = [x for w in got.witness.values() for x in w]
                else:
                    values = list(got.certificate)
                assert all(type(x) is F for x in values)
                kinds.add(kind)
        assert kinds == {"member", "hyperplane"}


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
