"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's solver paths: linear programs are
checked by enumerating basic feasible points of the polytope, linear
systems by plain Gaussian elimination over Fractions.  Membership is
decided by the full subset system, too large for vertex enumeration, so
it goes through the general simplex, which no membership path uses, and
its point or Farkas certificate is re-checked here.
"""

from fractions import Fraction
from itertools import combinations

from smdc.exactlp import LinearProgram, feasible

LE = "<="
GE = ">="


def solve_square(A, b):
    """Exact solution of a square system, or None when singular."""
    n = len(A)
    M = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(A, b)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [v / inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def enumerate_vertices(rows, senses, rhs, n):
    """All basic feasible points of {rows vs rhs, x >= 0}."""
    constraints = [(list(map(Fraction, r)), Fraction(v)) for r, v in zip(rows, rhs)]
    for j in range(n):
        coeffs = [Fraction(0)] * n
        coeffs[j] = Fraction(1)
        constraints.append((coeffs, Fraction(0)))
    seen = set()
    points = []
    for idxs in combinations(range(len(constraints)), n):
        A = [constraints[i][0] for i in idxs]
        b = [constraints[i][1] for i in idxs]
        x = solve_square(A, b)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        ok = True
        for row, sense, v in zip(rows, senses, rhs):
            lhs = sum(Fraction(a) * xi for a, xi in zip(row, x))
            if sense == LE and lhs > v:
                ok = False
                break
            if sense == GE and lhs < v:
                ok = False
                break
        if ok:
            key = tuple(x)
            if key not in seen:
                seen.add(key)
                points.append(list(x))
    return points


def brute_lp_max(objective, rows, senses, rhs, n):
    """(status, value) for a max LP whose feasible set is a polytope.

    Correct only when the feasible region is bounded (callers add box
    constraints), because then the optimum sits on a vertex.
    """
    points = enumerate_vertices(rows, senses, rhs, n)
    if not points:
        return "infeasible", None
    best = max(sum(Fraction(c) * x for c, x in zip(objective, p)) for p in points)
    return "optimal", best


def subset_system_member(rates, entropies, levels, r0=None):
    """Membership from the definition: a split x[level][slot] with every
    alpha-subset of encoders holding at least H_alpha at its level and
    every encoder's split within its rate.  With r0, slot 0 is an
    all-access encoder that joins every subset.  One row per (level,
    subset) and per slot, 2^L - 1 + L rows for the plain scheme."""
    L = len(rates)
    caps = list(rates) if r0 is None else [r0] + list(rates)
    shift = len(caps) - L
    n = len(levels) * len(caps)
    lp = LinearProgram(n)
    for ai, (alpha, h) in enumerate(zip(levels, entropies)):
        base = ai * len(caps)
        for u in combinations(range(L), alpha):
            coeffs = [0] * n
            if shift:
                coeffs[base] = 1
            for l in u:
                coeffs[base + shift + l] = 1
            lp.add(coeffs, GE, h)
    for slot, cap in enumerate(caps):
        coeffs = [0] * n
        coeffs[slot :: len(caps)] = [1] * len(levels)
        lp.add(coeffs, LE, cap)
    res = feasible(lp)
    rows, senses, rhs = lp.rows, lp.senses, lp.rhs
    if res.feasible:
        x = res.point
        lhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        ok = all(v >= 0 for v in x) and all(
            l >= v if s == GE else l <= v for l, s, v in zip(lhs, senses, rhs)
        )
    else:
        # y >= 0 on demand rows, <= 0 on capacity rows, y.A <= 0, y.b > 0
        y = res.certificate
        ok = (
            all(c >= 0 if s == GE else c <= 0 for c, s in zip(y, senses))
            and all(sum(c * row[j] for c, row in zip(y, rows)) <= 0 for j in range(n))
            and sum(c * v for c, v in zip(y, rhs)) > 0
        )
    if not ok:
        raise AssertionError("general simplex returned an unchecked answer")
    return res.feasible
