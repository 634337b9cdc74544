import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smdc.exactlp import (
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    _Tableau,
    _check_certificate,
    _check_optimal,
    _check_point,
    as_fraction,
    as_fractions,
    feasible,
    over_common_denominator,
    solve_max,
)

from oracles import (
    FractionSimplex,
    brute_lp_max,
    packing_lp,
    reference_feasible,
    reference_solve_max,
)

F = Fraction


def lp_single_upper():
    lp = LinearProgram(1, [1])
    lp.add([1], LE, 5)
    return lp


class TestSolveMax:
    def test_single_variable(self):
        sol = solve_max(lp_single_upper())
        assert sol.status == OPTIMAL
        assert sol.value == 5
        assert sol.primal == (F(5),)
        assert sol.dual == (F(1),)

    def test_packing_triangle(self):
        # expected values frozen from the vertex-enumeration oracle below
        lp = LinearProgram(3, [1, 1, 1])
        lp.add([1, 1, 0], LE, 2)
        lp.add([1, 0, 1], LE, 1)
        lp.add([0, 1, 1], LE, 1)
        sol = solve_max(lp)
        assert sol.status == OPTIMAL
        assert sol.value == 2
        assert sol.primal == (F(1), F(1), F(0))
        status, value = brute_lp_max(
            [1, 1, 1],
            [[1, 1, 0], [1, 0, 1], [0, 1, 1]],
            [LE, LE, LE],
            [2, 1, 1],
            3,
        )
        assert (status, value) == ("optimal", F(2))

    def test_infeasible_with_certificate(self):
        lp = LinearProgram(1, [1])
        lp.add([1], LE, -1)
        sol = solve_max(lp)
        assert sol.status == INFEASIBLE
        assert sol.certificate is not None
        # solve_max re-verifies the certificate; check orientation here too
        (c,) = sol.certificate
        assert c < 0

    def test_unbounded(self):
        lp = LinearProgram(2, [1, 0])
        lp.add([0, 1], LE, 1)
        assert solve_max(lp).status == UNBOUNDED

    def test_mixed_senses(self):
        lp = LinearProgram(2, [1, 2])
        lp.add([1, 1], LE, 4)
        lp.add([1, 0], GE, 1)
        sol = solve_max(lp)
        assert sol.status == OPTIMAL
        assert sol.value == 7
        assert sol.primal == (F(1), F(3))

    def test_degenerate_beale(self):
        # cycles under naive most-negative pivoting; Bland must terminate
        lp = LinearProgram(4, [F(3, 4), -150, F(1, 50), -6])
        lp.add([F(1, 4), -60, -F(1, 25), 9], LE, 0)
        lp.add([F(1, 2), -90, -F(1, 50), 3], LE, 0)
        lp.add([0, 0, 1, 0], LE, 1)
        sol = solve_max(lp)
        assert sol.status == OPTIMAL
        assert sol.value == F(1, 20)

    def test_duality_on_optimal(self):
        lp = LinearProgram(2, [2, 3])
        lp.add([1, 2], LE, 7)
        lp.add([3, 1], LE, 9)
        sol = solve_max(lp)
        dual_obj = sum(y * b for y, b in zip(sol.dual, lp.rhs))
        assert dual_obj == sol.value

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            LinearProgram(1, [0.5])

    def test_dimension_mismatch(self):
        lp = LinearProgram(2, [1, 1])
        with pytest.raises(ValueError):
            lp.add([1], LE, 1)
        with pytest.raises(ValueError):
            lp.add([1, 1], "==", 1)


class TestFeasible:
    def test_interval(self):
        lp = LinearProgram(1)
        lp.add([1], GE, 1)
        lp.add([1], LE, 2)
        res = feasible(lp)
        assert res.feasible
        assert res.point == (F(1),)

    def test_empty_interval(self):
        lp = LinearProgram(1)
        lp.add([1], GE, 2)
        lp.add([1], LE, 1)
        res = feasible(lp)
        assert not res.feasible
        cert = res.certificate
        # combination of rows with these multipliers is contradictory
        assert cert[0] >= 0 and cert[1] <= 0
        assert cert[0] * 2 + cert[1] * 1 > 0

    def test_redundant_rows(self):
        lp = LinearProgram(2)
        lp.add([1, 1], GE, 2)
        lp.add([1, 1], GE, 2)
        lp.add([2, 2], GE, 4)
        lp.add([1, 0], LE, 5)
        res = feasible(lp)
        assert res.feasible


class TestRandomAgainstOracle:
    def test_random_bounded_lps(self):
        rng = random.Random(20260809)
        box = 4
        for trial in range(120):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            rows, senses, rhs = [], [], []
            for _ in range(m):
                rows.append([F(rng.randint(-3, 3)) for _ in range(n)])
                senses.append(rng.choice([LE, GE]))
                rhs.append(F(rng.randint(-4, 4)))
            for j in range(n):
                coeffs = [F(0)] * n
                coeffs[j] = F(1)
                rows.append(coeffs)
                senses.append(LE)
                rhs.append(F(box))
            obj = [F(rng.randint(-3, 3)) for _ in range(n)]
            lp = LinearProgram(n, obj)
            for r, s, b in zip(rows, senses, rhs):
                lp.add(r, s, b)
            sol = solve_max(lp)
            status, value = brute_lp_max(obj, rows, senses, rhs, n)
            assert sol.status == status, f"trial {trial}"
            if status == "optimal":
                assert sol.value == value, f"trial {trial}"

    def test_determinism(self):
        lp1 = LinearProgram(3, [1, 1, 1])
        lp2 = LinearProgram(3, [1, 1, 1])
        for lp in (lp1, lp2):
            lp.add([1, 1, 0], LE, 2)
            lp.add([1, 0, 1], LE, 1)
            lp.add([0, 1, 1], LE, 1)
        assert solve_max(lp1).primal == solve_max(lp2).primal


# zeros and small denominators are common, so rows are often degenerate
coef = st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 4)])


@st.composite
def lp_specs(draw):
    """(objective, [(coeffs, sense, rhs), ...]) with mixed senses, negative
    right-hand sides, zero rows, and duplicate or scaled (redundant) rows;
    about a third come out unbounded, a third infeasible."""
    n = draw(st.integers(1, 4))
    objective = draw(st.lists(coef, min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["fresh"] * 3 + ["zero", "copy"]))
        if kind == "copy" and rows:
            coeffs, sense, rhs = draw(st.sampled_from(rows))
            k = draw(st.sampled_from([1, 2, F(1, 3)]))
            rows.append(([a * k for a in coeffs], sense, rhs * k))
            continue
        coeffs = [0] * n if kind == "zero" else draw(st.lists(coef, min_size=n, max_size=n))
        rows.append((coeffs, draw(st.sampled_from([LE, GE])), draw(coef)))
    return objective, rows


def build(spec):
    objective, rows = spec
    lp = LinearProgram(len(objective), objective)
    for coeffs, sense, rhs in rows:
        lp.add(coeffs, sense, rhs)
    return lp


# feasible at the slack basis; the primal phase pivots on the first row's
# entry -3 at beta = 0, a degenerate pivot on a negative entry
NEGATIVE_PIVOT = ([F(5, 4)], [([F(-3, 2)], GE, 0), ([F(1, 2)], GE, -1)])
BEALE = (
    [F(3, 4), -150, F(1, 50), -6],
    [
        ([F(1, 4), -60, -F(1, 25), 9], LE, 0),
        ([F(1, 2), -90, -F(1, 50), 3], LE, 0),
        ([0, 0, 1, 0], LE, 1),
    ],
)
# slack rows s = beta + T y with T = [N; N^-1], N = [[-3, 1], [-7, 2]]
# (N^3 = I), beta_12 = (-3, -4) and beta_34 = -N^-1 beta_12: the two pivots
# that the most negative beta and the largest entry pick give back this
# tableau with its variables relabelled, so the slack basis returns after
# six pivots
CYCLE = (
    [1, 1],
    [([-3, 1], GE, 3), ([-7, 2], GE, 4), ([2, -1], GE, -2), ([7, -3], GE, -9)],
)


class TestAgainstFractionTableau:
    """The integer tableau must take the Fraction tableau's pivots, so every
    field of every answer is the same."""

    @settings(max_examples=300, deadline=None)
    @given(lp_specs())
    @example(NEGATIVE_PIVOT)
    @example(BEALE)
    @example(CYCLE)
    def test_same_answers(self, spec):
        lp = build(spec)
        assert solve_max(lp) == reference_solve_max(lp)
        assert feasible(lp) == reference_feasible(lp)

    def test_negative_pivot_example(self):
        # x enters, and the least ratio is the first row's 0 / 3; the pivot
        # on -3 negates every row, so D becomes 3, not -3
        tab = _Tableau(build(NEGATIVE_PIVOT))
        assert tab.dual_phase() is None
        assert (tab.T[0], tab.beta[:2]) == ([-3], [0, 2])
        assert tab.primal_phase() == OPTIMAL
        # x = -s_0 / 3 and s_1 = (6 - s_0) / 3
        assert (tab.D, tab.basis) == (3, [0, 2])
        assert (tab.T[:2], tab.beta[:2]) == ([[-1], [-1]], [0, 6])

    def test_repeated_basis_switches_to_bland(self):
        lp = build(CYCLE)
        tab = _Tableau(lp)
        bases = []

        def pivot(r, c, pivot=tab._pivot):
            pivot(r, c)
            bases.append(sorted(tab.basis))

        tab._pivot = pivot
        r = tab.dual_phase()
        assert tab.bland and r is not None
        assert bases[5] == [2, 3, 4, 5] and [2, 3, 4, 5] not in bases[:5]
        sx = FractionSimplex(lp)
        assert sx.dual_phase() == r and sx.bland
        res = feasible(lp)
        assert not res.feasible and res == reference_feasible(lp)
        assert solve_max(lp) == reference_solve_max(lp)


class TestSamePivotsWithoutPhase1:
    """With every row `<=` and b >= 0 the slack basis is feasible, and
    Bland's rule takes the pivots of the two-phase tableau this one
    replaced: the packing LPs that define f_alpha give its answers field
    for field."""

    def test_f_alpha_matches_the_two_phase_dump(self):
        rng = random.Random(14)
        digest = hashlib.sha256()
        for trial in range(180):
            L = trial % 9 + 1
            lam = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(L)]
            if rng.random() < 0.3:
                lam[rng.randrange(L)] = F(rng.randint(10, 60))
            for alpha in range(1, L + 1):
                family, lp = packing_lp(lam, alpha)
                sol = solve_max(lp)
                fields = (alpha, [(u.members, str(x)) for u, x in zip(family, sol.primal)])
                digest.update(repr(fields).encode())
        # the same loop on the dense two-phase tableau
        assert digest.hexdigest() == (
            "690868843919a7541fe861931d5355c36873401d1e28848259117eff57f44376"
        )


def _first_break(constraints):
    """Least t >= 0 at which one of the constraints (c0 + c1 t >= 0, or
    > 0 when strict) stops holding, and whether one that binds there is
    strict; None when none ever breaks."""
    steps = [(-c0 / c1, strict) for c0, c1, strict in constraints if c1 < 0]
    if not steps:
        return None
    t = min(step for step, _ in steps)
    return t, any(strict for step, strict in steps if step == t)


def _rechecks_at_the_boundary(check, base, constraints_along):
    """Move each coordinate of base both ways up to where the first
    constraint breaks: the check accepts the boundary unless a strict
    constraint binds there, and rejects one step of 10^-30 beyond it."""
    tiny = F(1, 10**30)
    for j in range(len(base)):
        for sign in (1, -1):
            found = _first_break(constraints_along(j, sign))
            if found is None:
                continue
            t, strict = found

            def moved(step):
                return base[:j] + (base[j] + sign * step,) + base[j + 1:]

            if strict:
                with pytest.raises(AssertionError):
                    check(moved(t))
            else:
                check(moved(t))
            with pytest.raises(AssertionError):
                check(moved(t + tiny))


class TestRechecks:
    """The re-checks work on the integer rows and must still reject a
    violation of any size."""

    @settings(max_examples=150, deadline=None)
    @given(lp_specs())
    @example(BEALE)
    def test_smallest_violations_raise(self, spec):
        lp = build(spec)
        res = feasible(lp)
        if res.feasible:
            x = res.point

            def along(j, sign):
                out = [(x[j], F(sign), False)]                  # x_j >= 0
                for row, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
                    lhs = sum(a * v for a, v in zip(row, x))
                    k = 1 if sense == GE else -1                 # k (lhs - rhs) >= 0
                    out.append((k * (lhs - rhs), k * sign * row[j], False))
                return out

            _rechecks_at_the_boundary(lambda p: _check_point(lp, p), x, along)
        else:
            y = res.certificate

            def along(j, sign):
                k = 1 if lp.senses[j] == GE else -1              # k y_j >= 0
                out = [(k * y[j], k * sign, False)]
                combo = sum(c * b for c, b in zip(y, lp.rhs))
                out.append((combo, sign * lp.rhs[j], True))      # y.b > 0
                for col in range(lp.num_vars):                   # -(y.A)_col >= 0
                    total = sum(c * row[col] for c, row in zip(y, lp.rows))
                    out.append((-total, -sign * lp.rows[j][col], False))
                return out

            _rechecks_at_the_boundary(lambda c: _check_certificate(lp, c), y, along)

    @settings(max_examples=100, deadline=None)
    @given(lp_specs())
    @example(BEALE)
    def test_optimal_recheck_rejects_another_value(self, spec):
        lp = build(spec)
        sol = solve_max(lp)
        if sol.status != OPTIMAL:
            return
        tiny = F(1, 10**30)
        with pytest.raises(AssertionError, match="objective value mismatch"):
            _check_optimal(lp, LpSolution(OPTIMAL, sol.value + tiny, sol.primal, sol.dual))
        if sol.value:
            # the scaled duals keep their signs but miss the value by a hair
            dual = tuple(y * (1 + tiny) for y in sol.dual)
            with pytest.raises(AssertionError, match="strong duality violated"):
                _check_optimal(lp, LpSolution(OPTIMAL, sol.value, sol.primal, dual))

    @pytest.mark.parametrize(
        "coeffs, rhs",
        [
            ([1, -2, 0], 3),
            ([F(1, 2), F(-2, 3), 0], F(5, 4)),
            (["1/2", "-4/6", "0"], "10/8"),
            ([F(6, 4), 2, "-1/6"], 0),
        ],
    )
    def test_rows_scale_alike_from_every_type(self, coeffs, rhs):
        as_fraction_row = [F(a) for a in coeffs]
        lps = [LinearProgram(3), LinearProgram(3), LinearProgram(3)]
        lps[0].add(coeffs, LE, rhs)
        lps[1].add(as_fraction_row, LE, F(rhs))
        lps[2].add([str(a) for a in as_fraction_row], LE, str(F(rhs)))
        for lp in lps:
            assert (lp.int_rows, lp.int_rhs, lp.scales) == (
                lps[0].int_rows, lps[0].int_rhs, lps[0].scales
            )
            (sigma,) = lp.scales
            assert [F(a, sigma) for a in lp.int_rows[0]] == lp.rows[0] == as_fraction_row
            assert F(lp.int_rhs[0], sigma) == lp.rhs[0] == F(rhs)
        # sigma is the least scale that makes the row integral
        assert lps[0].scales == [lcm(*(F(a).denominator for a in [*coeffs, rhs]))]


# a coefficient as an int, a Fraction or a string, so rows come in every mix
any_type = st.one_of(
    st.integers(-6, 6),
    st.builds(F, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(F, st.integers(-6, 6), st.integers(1, 6)).map(str),
)


class TestRows:
    """A row is kept only as integers; `lp.rows` reads it back."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(any_type, min_size=1, max_size=5), any_type)
    @example([1, -2, 0], 3)
    @example([0, 0], "5/4")
    @example([F(1, 2), 2, "-1/6"], 0)
    def test_rows_read_back_as_fractions(self, coeffs, rhs):
        lp = LinearProgram(len(coeffs))
        lp.add(coeffs, GE, rhs)
        (row,) = lp.rows
        assert row == list(as_fractions(coeffs))
        assert all(type(a) is F for a in row)
        assert lp.rhs == [as_fraction(rhs)]
        # the scaling every row got before int rows skipped the Fractions
        scaled, sigma = over_common_denominator([*as_fractions(coeffs), as_fraction(rhs)])
        assert (lp.int_rows, lp.int_rhs, lp.scales) == ([scaled[:-1]], [scaled[-1]], [sigma])
        assert all(type(a) is int for a in lp.int_rows[0])

    def test_int_rows_keep_their_errors(self):
        lp = LinearProgram(2)
        with pytest.raises(TypeError):
            lp.add([1, 0.5], LE, 1)
        with pytest.raises(ValueError):
            lp.add([1, 2, 3], LE, 1)
        with pytest.raises(ValueError):
            lp.add([1, 2], "==", 1)
        with pytest.raises(TypeError):
            lp.add([1, 2], LE, 0.5)
        assert lp.num_rows == 0 and lp.rows == []
