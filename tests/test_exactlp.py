import random
from fractions import Fraction

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
    feasible,
    solve_max,
)

from oracles import (
    FractionSimplex,
    brute_lp_max,
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


# phase 1 ends with an artificial basic at zero in a row whose first
# structural entry is -3/2, so drop_artificials pivots on it
NEGATIVE_PIVOT = ([F(5, 4)], [([F(-3, 2)], GE, 0), ([F(1, 2)], GE, -1)])
BEALE = (
    [F(3, 4), -150, F(1, 50), -6],
    [
        ([F(1, 4), -60, -F(1, 25), 9], LE, 0),
        ([F(1, 2), -90, -F(1, 50), 3], LE, 0),
        ([0, 0, 1, 0], LE, 1),
    ],
)


class TestAgainstFractionTableau:
    """The integer tableau must take the Fraction tableau's pivots, so every
    field of every answer is the same."""

    @settings(max_examples=300, deadline=None)
    @given(lp_specs())
    @example(NEGATIVE_PIVOT)
    @example(BEALE)
    def test_same_answers(self, spec):
        lp = build(spec)
        assert solve_max(lp) == reference_solve_max(lp)
        assert feasible(lp) == reference_feasible(lp)

    def test_negative_pivot_example(self):
        sx = FractionSimplex(build(NEGATIVE_PIVOT))
        assert sx.phase1()
        (r,) = [i for i, col in enumerate(sx.basis) if col in sx.art_cols]
        assert next(a for a in sx.T[r] if a) < 0
