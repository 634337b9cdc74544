"""Exact linear programming over rationals.

Two-phase primal simplex with Bland's anti-cycling rule on an
integer-preserving tableau: `LinearProgram.add` scales each row to
integers once, by the lcm of its denominators (a row of ints by that of
its right-hand side alone), and keeps only the integer row; pivots
divide exactly by the previous pivot, and `fractions.Fraction` appears
only when the answer is read back.  Optimal solves return a primal
vertex and a dual vector whose objective matches the primal exactly;
infeasible systems return a Farkas certificate.  Both are re-verified exactly against the
integer rows before being handed back, the point and the multipliers
each put over one common denominator (`over_common_denominator`), so a
returned solution is proof-checked without a `Fraction` per term.

Conventions for `max c.x, rows, x >= 0`:
  * dual[i]        >= 0 on `<=` rows, <= 0 on `>=` rows,
                   with A^T.dual >= c componentwise and b.dual == value;
  * certificate[i] >= 0 on `>=` rows, <= 0 on `<=` rows,
                   with certificate^T.A <= 0 componentwise and
                   certificate^T.b > 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

LE = "<="
GE = ">="

_ZERO = Fraction(0)
_LONE_UNDERSCORE = re.compile(r"(?<!\d)_|_(?!\d)")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("binary floats are not accepted; pass Fraction, int or str")
    text = x
    if isinstance(x, str):
        # Fraction('1e10000000') would build a ten-million-digit integer
        if "e" in x or "E" in x:
            raise ValueError(f"exponent notation is not accepted: {x!r}")
        # Fraction reads digit groups such as 1_000 only from Python 3.11 on
        if _LONE_UNDERSCORE.search(x):
            raise ValueError(f"an underscore must sit between two digits: {x!r}")
        text = x.replace("_", "")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def as_fractions(xs) -> tuple[Fraction, ...]:
    return tuple(as_fraction(x) for x in xs)


def over_common_denominator(xs) -> tuple[list[int], int]:
    """(ns, d) with xs[i] == ns[i] / d, d the lcm of the denominators of
    the rationals xs; ([], 1) for none."""
    ratios = [x.as_integer_ratio() for x in xs]  # one call, not two properties
    d = lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


class LinearProgram:
    """maximize objective . x  subject to added rows and x >= 0."""

    def __init__(self, num_vars: int, objective: Sequence | None = None):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        self.num_vars = num_vars
        if objective is None:
            objective = [0] * num_vars
        self.objective = list(as_fractions(objective))
        if len(self.objective) != num_vars:
            raise ValueError("objective length does not match num_vars")
        self.senses: list[str] = []
        self.rhs: list[Fraction] = []
        # row i times sigma_i, the lcm of its denominators, in integers
        self.int_rows: list[list[int]] = []
        self.int_rhs: list[int] = []
        self.scales: list[int] = []

    def add(self, coeffs: Sequence, sense: str, rhs) -> None:
        """Append one row.  A row of ints scales by its rhs's denominator
        alone; any other row goes through `as_fraction` coefficient by
        coefficient."""
        coeffs = list(coeffs)
        ints = all(type(a) is int for a in coeffs)
        if not ints:
            coeffs = list(as_fractions(coeffs))
        if len(coeffs) != self.num_vars:
            raise ValueError("constraint length does not match num_vars")
        if sense not in (LE, GE):
            raise ValueError(f"sense must be {LE!r} or {GE!r}, got {sense!r}")
        rhs = as_fraction(rhs)
        if ints:
            sigma = rhs.denominator
            row, b = [a * sigma for a in coeffs], rhs.numerator
        else:
            scaled, sigma = over_common_denominator(coeffs + [rhs])
            row, b = scaled[:-1], scaled[-1]
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.int_rows.append(row)
        self.int_rhs.append(b)
        self.scales.append(sigma)

    @property
    def rows(self) -> list[list[Fraction]]:
        """The rows as added, read back from the integer rows."""
        return [[Fraction(a, s) for a in row] for row, s in zip(self.int_rows, self.scales)]

    @property
    def num_rows(self) -> int:
        return len(self.int_rows)


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    point: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


class _Simplex:
    """Dense integer-preserving tableau; shared by solve_max and feasible.

    Row i of [A | b], sign-flipped so that b >= 0, is the integer row
    that `LinearProgram.add` scaled by sigma_i; its slack, surplus and
    artificial columns stay +-1.  The tableau holds D times the rational
    tableau of that integer system, D > 0 being |det| of the current
    basis, so every pivot divides exactly by the previous D (Edmonds
    1967, Bareiss 1968) and no gcd is taken.  Scaling a row, a column or
    the objective by a positive number changes no sign and no ratio order
    within a column, so Bland's rule takes the same pivots as on the
    rational tableau.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.num_vars
        m = lp.num_rows
        self.n = n
        self.flip = [-1 if r < 0 else 1 for r in lp.rhs]
        senses = []
        for s, f in zip(lp.senses, self.flip):
            senses.append(s if f == 1 else (GE if s == LE else LE))

        self.art_cols: list[int] = []
        ncols = n + m
        for s in senses:
            if s == GE:
                self.art_cols.append(ncols)
                ncols += 1
        self.ncols = ncols

        self.T: list[list[int]] = []
        self.b: list[int] = []
        self.basis: list[int] = []
        self.ident: list[int] = []          # column that starts as +e_i for row i
        self.row_orig: list[int] = []       # original row index (rows may be dropped)
        self.scale = lp.scales              # sigma_i, by original row

        art_iter = iter(self.art_cols)
        for i in range(m):
            f = self.flip[i]
            row = [0] * ncols
            for j, a in enumerate(lp.int_rows[i]):
                if a:
                    row[j] = f * a
            if senses[i] == LE:
                row[n + i] = 1               # slack
                self.basis.append(n + i)
                self.ident.append(n + i)
            else:
                row[n + i] = -1              # surplus
                art = next(art_iter)
                row[art] = 1
                self.basis.append(art)
                self.ident.append(art)
            self.T.append(row)
            self.b.append(f * lp.int_rhs[i])
            self.row_orig.append(i)

        self.D = 1                          # tableau = D * rational tableau
        self.K = 1                          # objective = K * the phase's objective
        self.zrow: list[int] = [0] * ncols
        self.zval = 0
        self.banned: frozenset[int] = frozenset()

    def _price(self, costs: list[int], K: int) -> None:
        D = self.D
        z = [-D * c for c in costs]
        v = 0
        for i, row in enumerate(self.T):
            cb = costs[self.basis[i]]
            if cb:
                for j, a in enumerate(row):
                    if a:
                        z[j] += cb * a
                v += cb * self.b[i]
        self.zrow = z
        self.zval = v
        self.K = K

    def _pivot(self, r: int, c: int) -> None:
        T, b, D = self.T, self.b, self.D
        row = T[r]
        p = row[c]
        if p < 0:
            # only drop_artificials pivots on a negative entry; negating
            # the pivot row negates every new row, which keeps D > 0
            T[r] = row = [-a for a in row]
            b[r] = -b[r]
            p = -p
        br = b[r]
        for i, other in enumerate(T):
            if i == r:
                continue
            f = other[c]
            if f:
                T[i] = [(p * a - f * t) // D for a, t in zip(other, row)]
                b[i] = (p * b[i] - f * br) // D
            elif p != D:
                T[i] = [p * a // D for a in other]
                b[i] = p * b[i] // D
        f = self.zrow[c]
        if f or p != D:
            self.zrow = [(p * a - f * t) // D for a, t in zip(self.zrow, row)]
            self.zval = (p * self.zval - f * br) // D
        self.D = p
        self.basis[r] = c

    def _entering(self) -> int | None:
        for j, z in enumerate(self.zrow):
            if z < 0 and j not in self.banned:
                return j
        return None

    def _leaving(self, c: int) -> int | None:
        # least b_i / a_i over a_i > 0, by cross-multiplication; ties go
        # to the smaller basis index
        best = None
        for i, row in enumerate(self.T):
            a = row[c]
            if a > 0:
                if best is None:
                    best, best_a = i, a
                    continue
                lhs, rhs = self.b[i] * best_a, self.b[best] * a
                if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                    best, best_a = i, a
        return best

    def _run(self) -> str:
        while True:
            c = self._entering()
            if c is None:
                return OPTIMAL
            r = self._leaving(c)
            if r is None:
                return UNBOUNDED
            self._pivot(r, c)

    # phases -----------------------------------------------------------

    def phase1(self) -> bool:
        """Returns True when the system is feasible."""
        if not self.art_cols:
            return True
        # row i is scaled by sigma_i but its artificial's column is not,
        # so that artificial costs -1/sigma_i; times K to stay integral
        art = set(self.art_cols)
        arts = [(col, self.scale[i]) for i, col in enumerate(self.ident) if col in art]
        K = lcm(*(sigma for _, sigma in arts))
        costs = [0] * self.ncols
        for col, sigma in arts:
            costs[col] = -(K // sigma)
        self._price(costs, K)
        status = self._run()
        if status != OPTIMAL:
            raise AssertionError("phase-1 objective is bounded by zero")
        return self.zval == 0

    def _row_price(self, i: int) -> Fraction:
        """Simplex multiplier of row i's flipped, unscaled constraint."""
        orig = self.row_orig[i]
        return Fraction(self.zrow[self.ident[i]] * self.scale[orig], self.D * self.K)

    def farkas(self) -> tuple[Fraction, ...]:
        """Infeasibility certificate in original row order."""
        art = set(self.art_cols)
        cert = [_ZERO] * self.lp.num_rows
        for i, orig in enumerate(self.row_orig):
            y = self._row_price(i) - (1 if self.ident[i] in art else 0)
            cert[orig] = -y * self.flip[orig]
        return tuple(cert)

    def drop_artificials(self) -> None:
        art = set(self.art_cols)
        r = 0
        while r < len(self.T):
            if self.basis[r] in art:
                col = None
                for j in range(self.ncols):
                    if j not in art and self.T[r][j] != 0:
                        col = j
                        break
                if col is None:
                    # redundant row: remove it, dual contribution is zero
                    del self.T[r], self.b[r], self.basis[r]
                    del self.ident[r], self.row_orig[r]
                    continue
                self._pivot(r, col)
            r += 1
        self.banned = frozenset(self.art_cols)

    def phase2(self) -> str:
        costs, K = over_common_denominator(self.lp.objective)
        self._price(costs + [0] * (self.ncols - self.n), K)
        return self._run()

    # extraction -------------------------------------------------------

    def value(self) -> Fraction:
        return Fraction(self.zval, self.D * self.K)

    def primal(self) -> tuple[Fraction, ...]:
        x = [_ZERO] * self.n
        for i, bcol in enumerate(self.basis):
            if bcol < self.n:
                x[bcol] = Fraction(self.b[i], self.D)
        return tuple(x)

    def dual(self) -> tuple[Fraction, ...]:
        y = [_ZERO] * self.lp.num_rows
        for i, orig in enumerate(self.row_orig):
            y[orig] = self._row_price(i) * self.flip[orig]
        return tuple(y)


def _scaled_multipliers(lp: LinearProgram, y: Sequence[Fraction]) -> tuple[list[int], int]:
    """(zs, e) with zs[i] / e == y[i] / sigma_i: the row multipliers y
    acting on the integer rows, over one positive denominator e."""
    return over_common_denominator(
        [Fraction(c.numerator, c.denominator * s) for c, s in zip(y, lp.scales)]
    )


def _column_sums(lp: LinearProgram, zs: Sequence[int]) -> list[int]:
    """zs^T times the integer rows, column by column."""
    cols = [0] * lp.num_vars
    for z, row in zip(zs, lp.int_rows):
        if z:
            for j, a in enumerate(row):
                if a:
                    cols[j] += z * a
    return cols


def _check_point(lp: LinearProgram, x: Sequence[Fraction]) -> None:
    xs, d = over_common_denominator(x)
    if any(v < 0 for v in xs):
        raise AssertionError("solver returned a negative component")
    support = [(j, v) for j, v in enumerate(xs) if v]
    for row, sense, rhs in zip(lp.int_rows, lp.senses, lp.int_rhs):
        lhs = sum(row[j] * v for j, v in support)
        ok = lhs <= rhs * d if sense == LE else lhs >= rhs * d
        if not ok:
            raise AssertionError("solver returned an infeasible point")


def _check_certificate(lp: LinearProgram, cert: Sequence[Fraction]) -> None:
    for c, sense in zip(cert, lp.senses):
        if sense == GE and c < 0:
            raise AssertionError("certificate sign mismatch on >= row")
        if sense == LE and c > 0:
            raise AssertionError("certificate sign mismatch on <= row")
    zs, _ = _scaled_multipliers(lp, cert)
    if sum(z * b for z, b in zip(zs, lp.int_rhs)) <= 0:
        raise AssertionError("certificate combination is not positive")
    if any(col > 0 for col in _column_sums(lp, zs)):
        raise AssertionError("certificate column combination is positive")


def _check_optimal(lp: LinearProgram, sol: LpSolution) -> None:
    _check_point(lp, sol.primal)
    value = sol.value
    cs, dc = over_common_denominator(lp.objective)
    xs, dx = over_common_denominator(sol.primal)
    if sum(c * v for c, v in zip(cs, xs)) * value.denominator != value.numerator * dc * dx:
        raise AssertionError("objective value mismatch")
    for y, sense in zip(sol.dual, lp.senses):
        if sense == LE and y < 0:
            raise AssertionError("dual sign mismatch on <= row")
        if sense == GE and y > 0:
            raise AssertionError("dual sign mismatch on >= row")
    zs, e = _scaled_multipliers(lp, sol.dual)
    if sum(z * b for z, b in zip(zs, lp.int_rhs)) * value.denominator != value.numerator * e:
        raise AssertionError("strong duality violated")
    # column j: y^T A_j = cols[j] / e >= c_j = cs[j] / dc
    for col, c in zip(_column_sums(lp, zs), cs):
        if col * dc < c * e:
            raise AssertionError("dual infeasible")


def solve_max(lp: LinearProgram) -> LpSolution:
    """Solve to optimality, with exact strong duality verified internally."""
    sx = _Simplex(lp)
    if not sx.phase1():
        cert = sx.farkas()
        _check_certificate(lp, cert)
        return LpSolution(status=INFEASIBLE, certificate=cert)
    sx.drop_artificials()
    status = sx.phase2()
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)
    sol = LpSolution(
        status=OPTIMAL,
        value=sx.value(),
        primal=sx.primal(),
        dual=sx.dual(),
    )
    _check_optimal(lp, sol)
    return sol


def feasible(lp: LinearProgram) -> FeasibilityResult:
    """Phase-1 feasibility: an exact point, or a verified Farkas certificate."""
    sx = _Simplex(lp)
    if sx.phase1():
        x = sx.primal()
        _check_point(lp, x)
        return FeasibilityResult(feasible=True, point=x)
    cert = sx.farkas()
    _check_certificate(lp, cert)
    return FeasibilityResult(feasible=False, certificate=cert)
