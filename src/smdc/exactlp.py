"""Exact linear programming over rationals.

Two-phase primal simplex with Bland's anti-cycling rule, all arithmetic
in `fractions.Fraction`.  Optimal solves return a primal vertex and a
dual vector whose objective matches the primal exactly; infeasible
systems return a Farkas certificate.  Both are re-verified against the
input before being handed back, so a returned solution is proof-checked.

Conventions for `max c.x, rows, x >= 0`:
  * dual[i]        >= 0 on `<=` rows, <= 0 on `>=` rows,
                   with A^T.dual >= c componentwise and b.dual == value;
  * certificate[i] >= 0 on `>=` rows, <= 0 on `<=` rows,
                   with certificate^T.A <= 0 componentwise and
                   certificate^T.b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

LE = "<="
GE = ">="

_ZERO = Fraction(0)
_ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("binary floats are not accepted; pass Fraction, int or str")
    # Fraction('1e10000000') would build a ten-million-digit integer
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise ValueError(f"exponent notation is not accepted: {x!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def as_fractions(xs) -> tuple[Fraction, ...]:
    return tuple(as_fraction(x) for x in xs)


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
        self.rows: list[list[Fraction]] = []
        self.senses: list[str] = []
        self.rhs: list[Fraction] = []

    def add(self, coeffs: Sequence, sense: str, rhs) -> None:
        coeffs = list(as_fractions(coeffs))
        if len(coeffs) != self.num_vars:
            raise ValueError("constraint length does not match num_vars")
        if sense not in (LE, GE):
            raise ValueError(f"sense must be {LE!r} or {GE!r}, got {sense!r}")
        self.rows.append(coeffs)
        self.senses.append(sense)
        self.rhs.append(as_fraction(rhs))

    @property
    def num_rows(self) -> int:
        return len(self.rows)


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
    """Dense tableau over Fractions; shared by solve_max and feasible."""

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

        self.T: list[list[Fraction]] = []
        self.b: list[Fraction] = []
        self.basis: list[int] = []
        self.ident: list[int] = []          # column that starts as +e_i for row i
        self.row_orig: list[int] = []       # original row index (rows may be dropped)

        art_iter = iter(self.art_cols)
        for i in range(m):
            row = [_ZERO] * ncols
            f = self.flip[i]
            for j, a in enumerate(lp.rows[i]):
                if a:
                    row[j] = a if f == 1 else -a
            rhs = lp.rhs[i] if f == 1 else -lp.rhs[i]
            if senses[i] == LE:
                row[n + i] = _ONE            # slack
                self.basis.append(n + i)
                self.ident.append(n + i)
            else:
                row[n + i] = -_ONE           # surplus
                art = next(art_iter)
                row[art] = _ONE
                self.basis.append(art)
                self.ident.append(art)
            self.T.append(row)
            self.b.append(rhs)
            self.row_orig.append(i)

        self.zrow: list[Fraction] = [_ZERO] * ncols
        self.zval = _ZERO
        self.banned: frozenset[int] = frozenset()

    def _price(self, costs: list[Fraction]) -> None:
        z = [-c for c in costs]
        v = _ZERO
        for i, row in enumerate(self.T):
            cb = costs[self.basis[i]]
            if cb:
                for j, a in enumerate(row):
                    if a:
                        z[j] += cb * a
                v += cb * self.b[i]
        self.zrow = z
        self.zval = v

    def _pivot(self, r: int, c: int) -> None:
        row = self.T[r]
        piv = row[c]
        if piv != 1:
            self.T[r] = row = [a / piv for a in row]
            self.b[r] /= piv
        br = self.b[r]
        for i, other in enumerate(self.T):
            if i == r:
                continue
            f = other[c]
            if f:
                self.T[i] = [a - f * p for a, p in zip(other, row)]
                if br:
                    self.b[i] -= f * br
        f = self.zrow[c]
        if f:
            self.zrow = [a - f * p for a, p in zip(self.zrow, row)]
            if br:
                self.zval -= f * br
        self.basis[r] = c

    def _entering(self) -> int | None:
        for j, z in enumerate(self.zrow):
            if z < 0 and j not in self.banned:
                return j
        return None

    def _leaving(self, c: int) -> int | None:
        best_key = None
        best_row = None
        for i, row in enumerate(self.T):
            a = row[c]
            if a > 0:
                key = (self.b[i] / a, self.basis[i])
                if best_key is None or key < best_key:
                    best_key = key
                    best_row = i
        return best_row

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
        costs = [_ZERO] * self.ncols
        for c in self.art_cols:
            costs[c] = -_ONE
        self._price(costs)
        status = self._run()
        if status != OPTIMAL:
            raise AssertionError("phase-1 objective is bounded by zero")
        return self.zval == 0

    def farkas(self) -> tuple[Fraction, ...]:
        """Infeasibility certificate in original row order."""
        art = set(self.art_cols)
        cert = [_ZERO] * self.lp.num_rows
        for i, orig in enumerate(self.row_orig):
            col = self.ident[i]
            y = self.zrow[col] + (-_ONE if col in art else _ZERO)
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
        costs = [_ZERO] * self.ncols
        for j, c in enumerate(self.lp.objective):
            costs[j] = c
        self._price(costs)
        return self._run()

    # extraction -------------------------------------------------------

    def primal(self) -> tuple[Fraction, ...]:
        x = [_ZERO] * self.n
        for i, bcol in enumerate(self.basis):
            if bcol < self.n:
                x[bcol] = self.b[i]
        return tuple(x)

    def dual(self) -> tuple[Fraction, ...]:
        y = [_ZERO] * self.lp.num_rows
        for i, orig in enumerate(self.row_orig):
            y[orig] = self.zrow[self.ident[i]] * self.flip[orig]
        return tuple(y)


def _check_point(lp: LinearProgram, x: Sequence[Fraction]) -> None:
    if any(v < 0 for v in x):
        raise AssertionError("solver returned a negative component")
    for row, sense, rhs in zip(lp.rows, lp.senses, lp.rhs):
        lhs = sum((a * v for a, v in zip(row, x) if a), _ZERO)
        ok = lhs <= rhs if sense == LE else lhs >= rhs
        if not ok:
            raise AssertionError("solver returned an infeasible point")


def _check_certificate(lp: LinearProgram, cert: Sequence[Fraction]) -> None:
    combo = _ZERO
    for c, sense, rhs in zip(cert, lp.senses, lp.rhs):
        if sense == GE and c < 0:
            raise AssertionError("certificate sign mismatch on >= row")
        if sense == LE and c > 0:
            raise AssertionError("certificate sign mismatch on <= row")
        combo += c * rhs
    if combo <= 0:
        raise AssertionError("certificate combination is not positive")
    for j in range(lp.num_vars):
        col = sum((c * row[j] for c, row in zip(cert, lp.rows) if row[j]), _ZERO)
        if col > 0:
            raise AssertionError("certificate column combination is positive")


def _check_optimal(lp: LinearProgram, sol: LpSolution) -> None:
    _check_point(lp, sol.primal)
    value = sum((c * v for c, v in zip(lp.objective, sol.primal) if c), _ZERO)
    if value != sol.value:
        raise AssertionError("objective value mismatch")
    dual_value = _ZERO
    for y, sense, rhs in zip(sol.dual, lp.senses, lp.rhs):
        if sense == LE and y < 0:
            raise AssertionError("dual sign mismatch on <= row")
        if sense == GE and y > 0:
            raise AssertionError("dual sign mismatch on >= row")
        dual_value += y * rhs
    if dual_value != sol.value:
        raise AssertionError("strong duality violated")
    for j in range(lp.num_vars):
        col = sum((y * row[j] for y, row in zip(sol.dual, lp.rows) if row[j]), _ZERO)
        if col < lp.objective[j]:
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
        value=sx.zval,
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
