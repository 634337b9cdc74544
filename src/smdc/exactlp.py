"""Exact linear programming over rationals.

One condensed integer tableau (Tucker form: a row per constraint, a
column per nonbasic variable, no slack, surplus or artificial columns).
`LinearProgram.add` scales each row to integers once, by the lcm of its
denominators (a row of ints by that of its right-hand side alone, as
`add_ints` does for a right-hand side given as num / den), and keeps
only the integer row; pivots divide exactly by the previous pivot,
and `fractions.Fraction` appears only when the answer is read back.
Each row records the D at which it was last written and is brought up to
the current D (times D over that D, exact by Bareiss) only when a pivot
eliminates in it or a read needs its value; signs read it as it stands.
Feasibility is a dual simplex from the slack basis, with no
phase-1 objective: a negative row with no positive entry is itself the
Farkas certificate, and the first one is returned before any further
pivot; otherwise the most negative row leaves and its largest positive
entry enters, with Bland's rule once a basis repeats.  A feasible system
has no such row, so the exit moves no feasible path.  An LP may have no
variables at all: it is feasible exactly when every right-hand side
allows zero.  `feasible` returns an exact point or a Farkas certificate,
either re-verified against the integer rows straight off the tableau;
one `Fraction` is built per entry read.  There is no objective: the
library decides membership, and nothing in it solves to optimality.

Conventions for `rows, x >= 0`: certificate[i] >= 0 on `>=` rows and
<= 0 on `<=` rows, with certificate^T.A <= 0 componentwise and
certificate^T.b > 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from ._record import Record

LE = "<="
GE = ">="

_ZERO = Fraction(0)
Vector = tuple[Fraction, ...]  # an exact point or certificate
_LONE_UNDERSCORE = re.compile(r"(?<!\d)_|_(?!\d)")


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
    return tuple(map(as_fraction, xs))


def over_common_denominator(xs) -> tuple[list[int], int]:
    """(ns, d) with xs[i] == ns[i] / d, d the lcm of the denominators of
    the rationals xs; ([], 1) for none."""
    ratios = [x.as_integer_ratio() for x in xs]  # one call, not two properties
    d = lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


class LinearProgram:
    """The system of added rows with x >= 0."""

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise ValueError(f"num_vars must be nonnegative, got {num_vars}")
        self.num_vars = num_vars
        self.senses: list[str] = []
        # row i times sigma_i, the lcm of its denominators, in integers
        self.int_rows: list[list[int]] = []
        self.int_rhs: list[int] = []
        self.scales: list[int] = []

    def add(self, coeffs: Sequence, sense: str, rhs) -> None:
        """Append one row.  A row of ints goes to `add_ints` with its rhs's
        numerator and denominator; any other row goes through
        `as_fraction` coefficient by coefficient."""
        coeffs = list(coeffs)
        rhs = as_fraction(rhs)
        if {*map(type, coeffs)} <= {int}:
            self.add_ints(coeffs, sense, rhs.numerator, rhs.denominator)
        else:
            scaled, sigma = over_common_denominator([*as_fractions(coeffs), rhs])
            self._append(scaled[:-1], sense, scaled[-1], sigma)

    def add_ints(self, coeffs: list[int], sense: str, num: int, den: int) -> None:
        """Append a row of ints with right-hand side num / den, den > 0,
        scaled by den / gcd(num, den): the scale, row and rhs that `add`
        gives it with rhs Fraction(num, den), with no Fraction built."""
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        g = gcd(num, den)
        sigma = den // g
        row = [a * sigma for a in coeffs] if sigma != 1 else list(coeffs)
        self._append(row, sense, num // g, sigma)

    def _append(self, row: list[int], sense: str, b: int, sigma: int) -> None:
        if len(row) != self.num_vars:
            raise ValueError("constraint length does not match num_vars")
        if sense not in (LE, GE):
            raise ValueError(f"sense must be {LE!r} or {GE!r}, got {sense!r}")
        self.senses.append(sense)
        self.int_rows.append(row)
        self.int_rhs.append(b)
        self.scales.append(sigma)

    @property
    def rows(self) -> list[list[Fraction]]:
        """The rows as added, read back from the integer rows."""
        return [[Fraction(a, s) for a in row] for row, s in zip(self.int_rows, self.scales)]

    @property
    def rhs(self) -> list[Fraction]:
        """The right-hand sides as added, read back from the integers."""
        return [Fraction(b, s) for b, s in zip(self.int_rhs, self.scales)]

    @property
    def num_rows(self) -> int:
        return len(self.int_rows)


class FeasibilityResult(Record):
    """A point when feasible, else a Farkas certificate, held once as
    integers over one denominator, `scaled` = (ns, d > 0); `point` and
    `certificate` build their `Fraction`s only when read."""

    _fields = ("feasible", "point", "certificate")
    __slots__ = ("feasible", "scaled")

    def __init__(self, feasible: bool, point: Vector | None = None,
                 certificate: Vector | None = None, scaled: tuple | None = None) -> None:
        vector = point if feasible else certificate
        if scaled is None and vector is not None:
            scaled = over_common_denominator(vector)
        self._init(feasible, scaled)

    @property
    def point(self) -> Vector | None:
        return _fractions(*self.scaled) if self.feasible and self.scaled is not None else None

    @property
    def certificate(self) -> Vector | None:
        return None if self.feasible or self.scaled is None else _fractions(*self.scaled)


class _Tableau:
    """Condensed integer tableau (Tucker form), pivoted by `feasible`.

    Variable j < n is x_j and variable n + i is row i's slack: s_i =
    b_i - a_i.x on a `<=` row and a_i.x - b_i on a `>=` row, both times
    sigma_i, the scale `LinearProgram.add` gave the row, so that the
    slacks start as the basis with integer rows.  Row i reads its basic
    variable as (beta_i + T_i . x_N) / at_i over the nonbasic variables,
    one column each, with no slack, surplus or artificial columns.  D > 0
    is |det| of the basis, so every pivot divides exactly by the previous
    D (Edmonds 1967, Bareiss 1968) and no gcd is taken; at_i is the D at
    which row i was last written, and T_i D / at_i is integral too.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.n = n = lp.num_vars
        self.m = m = lp.num_rows
        self.T = [[-a for a in row] if s == LE else list(row)
                  for row, s in zip(lp.int_rows, lp.senses)]
        self.beta = [b if s == LE else -b for b, s in zip(lp.int_rhs, lp.senses)]
        self.at = [1] * m
        self.basis = list(range(n, n + m))  # the variable of each row
        self.nonbasic = list(range(n))      # the variable of each column
        self.D = 1
        self.bland = False                  # set once a basis repeats

    def current(self, i: int) -> list[int]:
        """Row i, brought up to the current D."""
        at, D = self.at[i], self.D
        if at != D:
            self.T[i] = [a * D // at for a in self.T[i]]
            self.beta[i] = self.beta[i] * D // at
            self.at[i] = D
        return self.T[i]

    def _pivot(self, r: int, c: int) -> None:
        """Swap row r's basic variable with column c's: T'_ij = (p T_ij -
        T_ic T_rj) / D, column c keeps T_ic and row r becomes -T_rj with D
        at column c.  The pivot p = T_rc is positive, as the dual phase
        picks it, so D stays positive; a row with 0 at column c stays as it
        was written."""
        T, beta, at, D = self.T, self.beta, self.at, self.D
        row = self.current(r)
        p, br = row[c], beta[r]
        for i, other in enumerate(T):
            if other[c] and i != r:
                if at[i] != D:
                    other = self.current(i)
                f = other[c]
                T[i] = new = [(p * a - f * t) // D if t else p * a // D
                              for a, t in zip(other, row)]
                new[c] = f
                beta[i] = (p * beta[i] - f * br) // D
                at[i] = p
        T[r] = new = [-t for t in row]
        new[c] = D
        beta[r] = -br
        at[r] = self.D = p
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]

    def dual_phase(self) -> int | None:
        """Pivot to a feasible basis and return None, or return a row
        whose basic variable is negative at every x_N >= 0.  Before each
        pivot, the first negative row with no positive entry is returned
        as it stands: it is already the Farkas certificate, and a
        feasible system never has one.  Otherwise the leaving row has the
        most negative beta at the current D, the entering column the
        largest positive entry in that row; once a basis repeats, both go
        by the least variable index (Bland's rule) for the rest of the
        solve."""
        T, beta, at, basis, nonbasic = self.T, self.beta, self.at, self.basis, self.nonbasic
        key = sum(1 << v for v in basis)
        seen = {key}
        while True:
            rows = [i for i in range(self.m) if beta[i] < 0]
            if not rows:
                return None
            for i in rows:
                if max(T[i], default=0) <= 0:
                    return i
            if self.bland:
                r = min(rows, key=basis.__getitem__)
                cols = [j for j, a in enumerate(T[r]) if a > 0]
                c = min(cols, key=nonbasic.__getitem__)
            else:
                D = self.D
                now = [beta[i] * D // at[i] for i in rows]
                r = rows[now.index(min(now))]  # the first most negative
                top = max(T[r])
                c = T[r].index(top)  # the first largest entry
                key ^= (1 << basis[r]) | (1 << nonbasic[c])
                if key in seen:
                    self.bland = True
                seen.add(key)
            self._pivot(r, c)

    # extraction: integers over one positive denominator ---------------

    def point(self) -> list[int]:
        """The basic solution over D: x_j = beta_i / D at the row of x_j."""
        x = [0] * self.n
        for i, v in enumerate(self.basis):
            if v < self.n:
                x[v] = self.beta[i] * self.D // self.at[i]
        return x

    def multipliers(self, r: int) -> list[int]:
        """Row r, beta_r < 0 and no positive entry, negated at the slack
        columns (at_r at its own basic slack): the Farkas multipliers y >= 0
        of the slack rows, y.A~ >= 0 and y.b~ = beta_r < 0, as multipliers
        of the integer rows over at_r, a `<=` row's slack negated."""
        ys = [0] * self.m
        for j, v in enumerate(self.nonbasic):
            if v >= self.n:
                ys[v - self.n] = -self.T[r][j]
        if self.basis[r] >= self.n:
            ys[self.basis[r] - self.n] = self.at[r]
        return [y if s == GE else -y for y, s in zip(ys, self.lp.senses)]


def _fractions(ns: Sequence[int], d: int) -> Vector:
    return tuple(Fraction(n, d) if n else _ZERO for n in ns)


def _column_sums(lp: LinearProgram, zs: Sequence[int]) -> list[int]:
    """zs^T times the integer rows, column by column."""
    cols = [0] * lp.num_vars
    for z, row in zip(zs, lp.int_rows):
        if z:
            for j, a in enumerate(row):
                if a:
                    cols[j] += z * a
    return cols


def _check_point(lp: LinearProgram, xs: Sequence[int], d: int) -> None:
    """The point xs / d, d > 0, against every integer row."""
    if any(v < 0 for v in xs):
        raise AssertionError("solver returned a negative component")
    for row, sense, rhs in zip(lp.int_rows, lp.senses, lp.int_rhs):
        lhs = sum(map(mul, row, xs))
        ok = lhs <= rhs * d if sense == LE else lhs >= rhs * d
        if not ok:
            raise AssertionError("solver returned an infeasible point")


def _check_certificate(lp: LinearProgram, zs: Sequence[int]) -> None:
    """zs, multipliers of the integer rows, over any positive denominator."""
    for z, sense in zip(zs, lp.senses):
        if (z < 0) if sense == GE else (z > 0):
            raise AssertionError(f"certificate sign mismatch on {sense} row")
    if sum(map(mul, zs, lp.int_rhs)) <= 0:
        raise AssertionError("certificate combination is not positive")
    if any(col > 0 for col in _column_sums(lp, zs)):
        raise AssertionError("certificate column combination is positive")


def _farkas(lp: LinearProgram, tab: _Tableau, r: int) -> tuple[list[int], int]:
    """Row r's Farkas certificate, verified, as numerators over at_r."""
    zs = tab.multipliers(r)
    _check_certificate(lp, zs)
    return [z * sigma for z, sigma in zip(zs, lp.scales)], tab.at[r]


def feasible(lp: LinearProgram) -> FeasibilityResult:
    """The dual phase alone: an exact point, or a verified Farkas
    certificate, as integers over one denominator (`scaled`); its
    `Fraction`s are built only if read."""
    tab = _Tableau(lp)
    r = tab.dual_phase()
    if r is not None:
        ns, d = _farkas(lp, tab, r)
        return FeasibilityResult(False, scaled=(ns, d))
    xs = tab.point()
    _check_point(lp, xs, tab.D)
    return FeasibilityResult(True, scaled=(xs, tab.D))
