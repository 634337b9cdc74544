import random
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smdc.exactlp import (
    GE,
    LE,
    LinearProgram,
    _Tableau,
    _check_certificate,
    _check_point,
    as_fraction,
    as_fractions,
    feasible,
    over_common_denominator,
)

from oracles import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    FractionSimplex,
    LpSolution,
    brute_lp_max,
    reference_feasible,
    reference_solve_max,
)

F = Fraction


def lp_single_upper():
    lp = LinearProgram(1)
    lp.add([1], LE, 5)
    return lp


class TestSolveMax:
    """The library decides feasibility only; `reference_solve_max`, the
    Fraction tableau's optimum, is the tests' LP solver, checked here on
    LPs with known optima."""

    def test_single_variable(self):
        sol = reference_solve_max(lp_single_upper(), [1])
        assert sol.status == OPTIMAL
        assert sol.value == 5
        assert sol.primal == (F(5),)
        assert sol.dual == (F(1),)

    def test_packing_triangle(self):
        # expected values frozen from the vertex-enumeration oracle below
        lp = LinearProgram(3)
        lp.add([1, 1, 0], LE, 2)
        lp.add([1, 0, 1], LE, 1)
        lp.add([0, 1, 1], LE, 1)
        sol = reference_solve_max(lp, [1, 1, 1])
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
        lp = LinearProgram(1)
        lp.add([1], LE, -1)
        res = feasible(lp)
        assert not res.feasible
        # feasible re-verifies the certificate; check orientation here too
        (c,) = res.certificate
        assert c < 0
        assert reference_solve_max(lp, [1]) == LpSolution(INFEASIBLE, certificate=res.certificate)

    def test_unbounded(self):
        lp = LinearProgram(2)
        lp.add([0, 1], LE, 1)
        assert reference_solve_max(lp, [1, 0]).status == UNBOUNDED

    def test_mixed_senses(self):
        lp = LinearProgram(2)
        lp.add([1, 1], LE, 4)
        lp.add([1, 0], GE, 1)
        res = feasible(lp)
        assert res.feasible and res.point == (F(1), F(0))
        sol = reference_solve_max(lp, [1, 2])
        assert sol.status == OPTIMAL
        assert sol.value == 7
        assert sol.primal == (F(1), F(3))

    def test_degenerate_beale(self):
        # cycles under naive most-negative pivoting; Bland must terminate
        lp = LinearProgram(4)
        lp.add([F(1, 4), -60, -F(1, 25), 9], LE, 0)
        lp.add([F(1, 2), -90, -F(1, 50), 3], LE, 0)
        lp.add([0, 0, 1, 0], LE, 1)
        sol = reference_solve_max(lp, [F(3, 4), -150, F(1, 50), -6])
        assert sol.status == OPTIMAL
        assert sol.value == F(1, 20)

    def test_duality_on_optimal(self):
        lp = LinearProgram(2)
        lp.add([1, 2], LE, 7)
        lp.add([3, 1], LE, 9)
        sol = reference_solve_max(lp, [2, 3])
        dual_obj = sum(y * b for y, b in zip(sol.dual, lp.rhs))
        assert dual_obj == sol.value

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            reference_solve_max(lp_single_upper(), [0.5])

    def test_dimension_mismatch(self):
        lp = LinearProgram(2)
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

    def test_a_farkas_row_stops_before_any_pivot(self):
        # the most negative row, x >= 5, has a positive entry, but the
        # second, 0 x >= 1, has none: it is returned with no pivot
        lp = LinearProgram(1)
        lp.add([1], GE, 5)
        lp.add([0], GE, 1)
        tab = _Tableau(lp)
        with mock.patch.object(tab, "_pivot", side_effect=AssertionError("pivoted")):
            assert tab.dual_phase() == 1
        assert feasible(lp).certificate == (0, 1)
        assert feasible(lp) == reference_feasible(lp)

    @pytest.mark.parametrize("rhs, ok", [((0, -1, F(-1, 2)), True), ((0, F(1, 3)), False)])
    def test_no_variables(self, rhs, ok):
        # feasible exactly when every right-hand side allows zero
        lp = LinearProgram(0)
        for b in rhs:
            lp.add([], LE, -b)
        res = feasible(lp)
        assert res.feasible is ok
        if ok:
            zeros = (F(0),) * len(rhs)
            assert res.point == ()
            assert reference_solve_max(lp, []) == LpSolution(OPTIMAL, F(0), (), zeros)
        else:
            assert sum(c * b for c, b in zip(res.certificate, map(F, rhs))) < 0
            assert reference_solve_max(lp, []).status == INFEASIBLE
        assert feasible(lp) == reference_feasible(lp)

    def test_negative_variable_count(self):
        with pytest.raises(ValueError, match="num_vars must be nonnegative"):
            LinearProgram(-1)


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
            lp = LinearProgram(n)
            for r, s, b in zip(rows, senses, rhs):
                lp.add(r, s, b)
            sol = reference_solve_max(lp, obj)
            status, value = brute_lp_max(obj, rows, senses, rhs, n)
            assert sol.status == status, f"trial {trial}"
            if status == "optimal":
                assert sol.value == value, f"trial {trial}"

    def test_determinism(self):
        lp1, lp2 = LinearProgram(3), LinearProgram(3)
        for lp in (lp1, lp2):
            lp.add([1, 1, 0], GE, 2)
            lp.add([1, 0, 1], GE, 1)
            lp.add([0, 1, 1], LE, 1)
        assert feasible(lp1).point == feasible(lp2).point


# zeros and small denominators are common, so rows are often degenerate
coef = st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 4)])


@st.composite
def lp_specs(draw):
    """(objective, [(coeffs, sense, rhs), ...]) with mixed senses, negative
    right-hand sides, zero rows, and duplicate or scaled (redundant) rows;
    about a third come out unbounded, a third infeasible.  The objective is
    for `reference_solve_max`; `build` makes the rows alone."""
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
    lp = LinearProgram(len(objective))
    for coeffs, sense, rhs in rows:
        lp.add(coeffs, sense, rhs)
    return lp


# feasible at the slack basis; the oracle's primal phase pivots on the first
# row's entry -3 at beta = 0, a degenerate pivot on a negative entry
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


def assert_optimum(lp, objective, sol):
    """An optimum of `reference_solve_max` re-checked in `Fraction`s: its
    point and duals are feasible, with equal values."""
    c, rows, rhs, x, y = as_fractions(objective), lp.rows, lp.rhs, sol.primal, sol.dual
    assert all(v >= 0 for v in x)
    for row, sense, b, yi in zip(rows, lp.senses, rhs, y):
        lhs = sum(a * v for a, v in zip(row, x))
        assert (lhs <= b and yi >= 0) if sense == LE else (lhs >= b and yi <= 0)
    for j, cj in enumerate(c):
        assert sum(yi * row[j] for yi, row in zip(y, rows)) >= cj
    assert sum(cj * v for cj, v in zip(c, x)) == sol.value == sum(yi * b for yi, b in zip(y, rhs))


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
        assert feasible(lp) == reference_feasible(lp)
        sol = reference_solve_max(lp, spec[0])
        if sol.status == OPTIMAL:
            assert_optimum(lp, spec[0], sol)
        else:
            # the oracle's Farkas row is the dual phase's, as `feasible`'s is
            assert sol.status == UNBOUNDED or sol.certificate == feasible(lp).certificate

    def test_negative_pivot_example(self):
        # the slack basis is feasible, so the dual phase takes no pivot
        tab = _Tableau(build(NEGATIVE_PIVOT))
        assert tab.dual_phase() is None
        assert (tab.T[0], tab.beta[:2]) == ([-3], [0, 2])
        assert feasible(build(NEGATIVE_PIVOT)).point == (F(0),)
        # the oracle's primal phase: x enters, and the least ratio is the
        # first row's 0 / 3, so x = -s_0 / 3 and s_1 = 2 - s_0 / 3
        sx = FractionSimplex(build(NEGATIVE_PIVOT))
        assert sx.dual_phase() is None
        assert sx.primal_phase(NEGATIVE_PIVOT[0]) == OPTIMAL
        assert (sx.basis, sx.T, sx.beta) == ([0, 2], [[F(-1, 3)], [F(-1, 3)]], [0, 2])

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


def row_multipliers(lp, y):
    """Multipliers y of the rows as added as (zs, e): zs / e acts on the
    integer rows, the form the re-checks take."""
    return over_common_denominator([F(c.numerator, c.denominator * s) for c, s in zip(y, lp.scales)])


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

            _rechecks_at_the_boundary(
                lambda p: _check_point(lp, *over_common_denominator(p)), x, along
            )
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

            _rechecks_at_the_boundary(
                lambda c: _check_certificate(lp, row_multipliers(lp, c)[0]), y, along
            )

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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=5), st.integers(-60, 60),
           st.integers(1, 60), st.sampled_from([LE, GE]))
    @example([0, 3], 0, 7, LE)
    @example([2, -4], 12, 18, GE)
    def test_int_rows_match_the_fraction_rhs(self, coeffs, num, den, sense):
        got, want = LinearProgram(len(coeffs)), LinearProgram(len(coeffs))
        got.add_ints(coeffs, sense, num, den)
        want.add([F(a) for a in coeffs], sense, F(num, den))
        for name in ("int_rows", "int_rhs", "scales", "rows", "rhs", "senses"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.scales == [F(num, den).denominator]
        assert all(type(a) is int for a in got.int_rows[0] + got.int_rhs)

    def test_int_rows_need_a_positive_denominator(self):
        for den in (0, -3):
            with pytest.raises(ValueError, match="denominator must be positive"):
                LinearProgram(2).add_ints([1, 2], LE, 1, den)

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


def rows_at_D(tab):
    """Every row of the integer tableau brought up to the current D, read
    without writing, each with its right-hand side last; every quotient
    must be exact."""
    rows = []
    for row, b, at in zip(tab.T, tab.beta, tab.at):
        assert all(a * tab.D % at == 0 for a in [*row, b])
        rows.append([a * tab.D // at for a in [*row, b]])
    return rows


def fraction_rows(sx):
    return [[*row, b] for row, b in zip(sx.T, sx.beta)]


def pivots_with_rows(tableau, read):
    """(r, c, read(tableau)) after every pivot of the dual phase."""
    shots, pivot = [], tableau._pivot

    def record(r, c):
        pivot(r, c)
        shots.append((r, c, read(tableau)))

    tableau._pivot = record
    tableau.dual_phase()
    return shots


def assert_lazy_rows_match(lp):
    """The integer tableau takes the Fraction tableau's pivots, and after
    each one every row at the current D is D times the Fraction row.
    Returns how many rows stood at an older D when they were read."""
    tab = _Tableau(lp)
    got = pivots_with_rows(tab, lambda t: (t.D, list(t.at), rows_at_D(t)))
    want = pivots_with_rows(FractionSimplex(lp), fraction_rows)
    assert [(r, c) for r, c, _ in got] == [(r, c) for r, c, _ in want]
    stale = 0
    for (_, _, (D, at, rows)), (_, _, fractions) in zip(got, want):
        assert len(rows) == len(fractions)
        for i, (row, frac) in enumerate(zip(rows, fractions)):
            assert row == [D * x for x in frac]
            stale += at[i] != D
    assert feasible(lp) == reference_feasible(lp)
    return stale


# mostly zeros, so that most rows hold a 0 in most pivot columns
sparse_coef = st.sampled_from([0] * 8 + [1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 4)])


@st.composite
def sparse_lp_specs(draw):
    """(a zero objective, rows) in `build`'s form; only the rows are read."""
    n = draw(st.integers(2, 6))
    rows = [
        (draw(st.lists(sparse_coef, min_size=n, max_size=n)), draw(st.sampled_from([LE, GE])),
         draw(st.sampled_from([-3, -1, 0, 1, 2, F(5, 2)])))
        for _ in range(draw(st.integers(2, 8)))
    ]
    return [0] * n, rows


def membership_lps(L):
    """The LPs that two member queries at L hand to `feasible`: the lowest
    one or two rates just above what levels 1 and 2 need of them, the
    others far above the superposition point.  Their lowest rate is below
    the point and every hyperplane of lambda = 1 on the k lowest rates
    holds, so neither closed form decides them, and the dual phase pivots.
    Rates that dominate the point, or that fail such a hyperplane, never
    build an LP."""
    import smdc.region as region

    rng = random.Random(f"lazy-{L}")
    lps = []

    def capture(lp):
        lps.append(lp)
        return feasible(lp)

    h = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(L)]
    point = sum((x / a for a, x in enumerate(h, 1)), F(0))
    with mock.patch.object(region, "feasible", capture):
        for low in ([h[0] + F(1, 8)], [h[0] + h[1] / 2 + F(1, 8)] * 2):
            rates = low + [2 * point + h[0] for _ in range(L - len(low))]
            assert region.smdc_member(rates, h).member
    return lps


class TestLazyRows:
    """A row is brought up to the current D only when a pivot eliminates in
    it or a read needs it; read at any time, it must equal the eager row."""

    @settings(max_examples=200, deadline=None)
    @given(sparse_lp_specs())
    @example(NEGATIVE_PIVOT)
    @example(BEALE)
    @example(CYCLE)
    def test_rows_match_the_fraction_tableau_after_every_pivot(self, spec):
        assert_lazy_rows_match(build(spec))

    def test_sparse_pivot_columns_leave_rows_stale(self):
        rng = random.Random(21)
        stale = 0
        for _ in range(40):
            n = rng.randint(3, 6)
            lp = LinearProgram(n)
            for _ in range(rng.randint(4, 9)):
                coeffs = [rng.choice([0] * 6 + [1, -1, 2, -3, F(1, 2)]) for _ in range(n)]
                lp.add(coeffs, rng.choice([LE, GE]), rng.randint(-3, 3))
            stale += assert_lazy_rows_match(lp)
        assert stale > 0

    @pytest.mark.parametrize("L", [20, 24])
    def test_membership_lps(self, L):
        lps = membership_lps(L)
        assert len(lps) == 2
        assert sum(assert_lazy_rows_match(lp) for lp in lps) > 0
