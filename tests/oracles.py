"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's solver paths: linear programs are
checked by enumerating basic feasible points of the polytope, linear
systems by plain Gaussian elimination over Fractions.  Membership is
decided by the full subset system, too large for vertex enumeration, so
it goes through the general simplex, which no membership path uses, and
its point or Farkas certificate is re-checked here; `chamber_member` is
the sorted-chamber LP that the rate split's LP, anchored at the
superposition split, replaced, and the new LP must match its verdicts.
`FractionSimplex` is the library's condensed tableau with one `Fraction`
per cell instead of integers over a running determinant; both take the
same pivots and stop at the same Farkas row, so `reference_feasible`
must give exactly the library's answers.  The library solves no LP to
optimality; `reference_solve_max` does, with the Fraction tableau's own
primal phase (Bland's rule) after the dual phase, and is itself checked
against vertex enumeration.  `packing_lp` is the LP that defines
f_alpha, and `packing_optimum_is` pins its optimum with two `feasible`
calls, a packing and a dual cover, for the closed form and the laid-out
packings to match.  The chain audits, f_alpha's closed form, subset
entropies, the membership rate split and the two chain builders have
`Fraction`-per-step references here too (the rate split's builds the
full LP for every query, where the library decides two cases in closed
form, and `fraction_member` puts a whole verdict together from it and
the greedy split's), which the library's integer sums must match
exactly, down to the insertion order of every dict.  Subset entropies also have a one-pass
reference that sums each marginal straight from the joint's integer
counts, which the library's cached and projected marginals must match
bit for bit.
The all-access hyperplanes g_m, whose maximum the greedy split must
attain, are theorem checks that only the tests call.  On the codec side,
`lagrange_product` is the Lagrange basis by its product formula, over
a bitwise carry-less multiply that shares no table with `smdc.gf`, and
`poly_eval` is Horner's rule over the same multiply.  `checked_solve`
and `checked_vandermonde` are `GF.solve` and `GF.vandermonde` written
on the checked scalar `mul`, `inv` and `pow`, which the table-driven
library versions must match entry for entry.  `layer_faults` certifies
a codec layer against the paper's model by exact ranks, from an
elimination of its own on `gf.mul` that shares nothing with
`GF.solve`: share set U decodes the layer's message iff rank M_U -
rank K_U equals the message length, and learns nothing of it iff rank
M_U = rank K_U, where K_U is U's key columns.  The tests' small
field `GF16`, product and uniform pmf tables and subset complements are
built here from their definitions, not by the library.
"""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations, product

from smdc.covers import (
    CASE_1,
    CASE_2,
    CASE_3,
    CASE_BASE,
    CoefficientChain,
    ConditionalAssignment,
)
from smdc.exactlp import (
    FeasibilityResult,
    LinearProgram,
    as_fraction,
    as_fractions,
    feasible,
    over_common_denominator,
)
from smdc.gf import GF
from smdc.region import (
    MembershipVerdict,
    SubsetCoefficients,
    f_profile,
    f_value,
    greedy_allocation,
)
from smdc.subsets import EncoderSet, subsets_of_size

LE = "<="
GE = ">="

_ZERO = Fraction(0)
_ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# `reference_solve_max`'s answer: the value, primal vertex and duals of an
# optimum, or the Farkas certificate of an infeasible system
LpSolution = namedtuple("LpSolution", "status value primal dual certificate",
                        defaults=(None, None, None, None))


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
    return checked_feasible(lp)


def checked_feasible(lp):
    """`exactlp.feasible`'s verdict, its point or Farkas certificate
    re-checked here in `Fraction`s."""
    res = feasible(lp)
    rows, senses, rhs = lp.rows, lp.senses, lp.rhs
    if res.feasible:
        x = res.point
        lhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        ok = all(v >= 0 for v in x) and all(
            l >= v if s == GE else l <= v for l, s, v in zip(lhs, senses, rhs)
        )
    else:
        # y >= 0 on >= rows, <= 0 on <= rows, y.A <= 0, y.b > 0
        y = res.certificate
        ok = (
            all(c >= 0 if s == GE else c <= 0 for c, s in zip(y, senses))
            and all(sum(c * row[j] for c, row in zip(y, rows)) <= 0
                    for j in range(lp.num_vars))
            and sum(c * v for c, v in zip(y, rhs)) > 0
        )
    if not ok:
        raise AssertionError("general simplex returned an unchecked answer")
    return res.feasible


class FractionSimplex:
    """`exactlp._Tableau` with one normalised `Fraction` per cell: the
    condensed tableau x_B = beta + T x_N over the slacks of the rows
    scaled by the lcm of their denominators, the same dual phase (with
    its exit at the first negative row that has no positive entry),
    switch to Bland's rule and read-out; and a primal phase of its own,
    which the library does not have."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.n = n = lp.num_vars
        self.m = m = lp.num_rows
        # s_i = g_i sigma_i (b_i - a_i.x), g_i = -1 on a >= row
        self.g = [1 if s == LE else -1 for s in lp.senses]
        self.sigma = [
            math.lcm(*(a.denominator for a in row), b.denominator)
            for row, b in zip(lp.rows, lp.rhs)
        ]
        self.T = [
            [-g * k * a for a in row] for row, g, k in zip(lp.rows, self.g, self.sigma)
        ]
        self.beta = [g * k * b for b, g, k in zip(lp.rhs, self.g, self.sigma)]
        self.basis = list(range(n, n + m))
        self.nonbasic = list(range(n))
        self.bland = False
        self.z: list[Fraction] | None = None
        self.z0 = _ZERO

    def _pivot(self, r: int, c: int) -> None:
        row, p = self.T[r], self.T[r][c]
        # x_c = (x_Br - beta_r - sum_{j != c} T_rj x_j) / p
        pivot_row = [-t / p for t in row]
        pivot_row[c] = 1 / p
        br = -self.beta[r] / p
        others = [(i, self.T[i]) for i in range(self.m) if i != r]
        if self.z is not None:
            others.append((None, self.z))
        for i, other in others:
            f = other[c]
            if not f:
                continue
            new = [a + f * t for a, t in zip(other, pivot_row)]
            new[c] = f / p
            if i is None:
                self.z, self.z0 = new, self.z0 + f * br
            else:
                self.T[i], self.beta[i] = new, self.beta[i] + f * br
        self.T[r], self.beta[r] = pivot_row, br
        self.basis[r], self.nonbasic[c] = self.nonbasic[c], self.basis[r]

    def dual_phase(self) -> int | None:
        seen = [sorted(self.basis)]
        while True:
            rows = [i for i in range(self.m) if self.beta[i] < 0]
            if not rows:
                return None
            # a negative row with no positive entry is a Farkas row
            for i in rows:
                if all(t <= 0 for t in self.T[i]):
                    return i
            if self.bland:
                r = min(rows, key=lambda i: self.basis[i])
                cols = [j for j in range(self.n) if self.T[r][j] > 0]
                c = min(cols, key=lambda j: self.nonbasic[j])
            else:
                r = min(rows, key=lambda i: self.beta[i])
                c = max(range(self.n), key=lambda j: self.T[r][j])
            self._pivot(r, c)
            if not self.bland:
                self.bland = sorted(self.basis) in seen
                seen.append(sorted(self.basis))

    def primal_phase(self, objective) -> str:
        """Price `objective` into a row of its own, then Bland's rule: the
        least variable with a positive entry there enters, and the least
        ratio leaves, ties to the least basic variable."""
        cost = list(as_fractions(objective)) + [_ZERO] * self.m
        self.z = [cost[v] for v in self.nonbasic]
        for i, v in enumerate(self.basis):
            for j in range(self.n):
                self.z[j] += cost[v] * self.T[i][j]
            self.z0 += cost[v] * self.beta[i]
        while True:
            cols = [j for j in range(self.n) if self.z[j] > 0]
            if not cols:
                return OPTIMAL
            c = min(cols, key=lambda j: self.nonbasic[j])
            rows = [i for i in range(self.m) if self.T[i][c] < 0]
            if not rows:
                return UNBOUNDED
            r = min(rows, key=lambda i: (self.beta[i] / -self.T[i][c], self.basis[i]))
            self._pivot(r, c)

    # extraction -------------------------------------------------------

    def _as_added(self, slack_values) -> tuple[Fraction, ...]:
        """Multipliers of the slack rows, row i's at variable n + i, as
        multipliers of the rows as added."""
        y = [_ZERO] * self.m
        for v, t in slack_values:
            if v >= self.n:
                y[v - self.n] = -self.g[v - self.n] * self.sigma[v - self.n] * t
        return tuple(y)

    def primal(self) -> tuple[Fraction, ...]:
        x = [_ZERO] * self.n
        for i, v in enumerate(self.basis):
            if v < self.n:
                x[v] = self.beta[i]
        return tuple(x)

    def dual(self) -> tuple[Fraction, ...]:
        # raising b_i by t moves s_i to -g_i sigma_i t, and the objective
        # by z_j times that
        return self._as_added([(v, self.z[j]) for j, v in enumerate(self.nonbasic)])

    def farkas(self, r: int) -> tuple[Fraction, ...]:
        # x_Br - sum_j T_rj x_Nj = beta_r < 0 sums the slack rows with
        # multipliers 1 at x_Br and -T_rj at x_Nj, all >= 0
        return self._as_added(
            [(self.basis[r], _ONE)] + [(v, -self.T[r][j]) for j, v in enumerate(self.nonbasic)]
        )


def reference_solve_max(lp, objective):
    """max objective.x over the rows of `lp` and x >= 0 on the Fraction
    tableau: the dual phase, then the primal phase.  An optimum's duals
    are >= 0 on `<=` rows and <= 0 on `>=` rows, with A^T.dual >= objective
    componentwise and b.dual == value."""
    sx = FractionSimplex(lp)
    r = sx.dual_phase()
    if r is not None:
        return LpSolution(status=INFEASIBLE, certificate=sx.farkas(r))
    if sx.primal_phase(objective) == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)
    return LpSolution(OPTIMAL, sx.z0, sx.primal(), sx.dual())


def reference_feasible(lp):
    """`exactlp.feasible` on the Fraction tableau, without its checks."""
    sx = FractionSimplex(lp)
    r = sx.dual_phase()
    if r is None:
        return FeasibilityResult(feasible=True, point=sx.primal())
    return FeasibilityResult(feasible=False, certificate=sx.farkas(r))


def slice_f_value(weights, alpha):
    """f_alpha from its definition: with the weights sorted nonincreasing,
    the least over j < alpha of sum(lam[j:]) / (alpha - j)."""
    lam = sorted((Fraction(w) for w in weights), reverse=True)
    return min(sum(lam[j:], _ZERO) / (alpha - j) for j in range(alpha))


def scan_least_ratio(ns, alpha):
    """(S_j, alpha - j) at the least j < alpha minimizing S_j / (alpha - j),
    S_j the sum of ns[j:], by comparing every j's ratio as a `Fraction`."""
    best = None
    for j in range(alpha):
        s = sum(ns[j:])
        if best is None or Fraction(s, alpha - j) < Fraction(*best):
            best = (s, alpha - j)
    return best


def fraction_greedy_allocation(r0, entropies):
    """(stored, residual, level) by the definition, in `Fraction`s: source
    alpha stores min(h_alpha, r0 - sum of the h_beta before it), clipped at
    zero, and the level is the first source with a residual, else None."""
    r0, h = as_fraction(r0), as_fractions(entropies)
    stored, before = [], _ZERO
    for x in h:
        stored.append(min(x, max(_ZERO, r0 - before)))
        before += x
    residual = [x - s for x, s in zip(h, stored)]
    level = next((a for a, x in enumerate(residual, 1) if x), None)
    return tuple(stored), tuple(residual), level


def fraction_subset_entropy(pmf, members):
    """Base-2 entropy of the marginal on `members`, the marginal summed in
    `Fraction`s over `pmf.probabilities` and each mass read by float()."""
    idx = [m - 1 for m in sorted(members)]
    marginal = {}
    for outcome, p in pmf.probabilities.items():
        key = tuple(outcome[i] for i in idx)
        marginal[key] = marginal.get(key, _ZERO) + p
    h = 0.0
    for p in marginal.values():
        fp = float(p)
        h -= fp * math.log2(fp)
    return max(h, 0.0)


def joint_subset_entropy(pmf, members):
    """Base-2 entropy of the marginal on the nonempty set `members`, its
    integer counts summed in one pass over `pmf.probabilities`, in the
    pmf's order, with no cache."""
    table = pmf.probabilities
    d = math.lcm(*(p.denominator for p in table.values()))
    idx = [m - 1 for m in sorted(set(members))]
    counts = {}
    for outcome, p in table.items():
        k = tuple(outcome[i] for i in idx)
        counts[k] = counts.get(k, 0) + p.numerator * (d // p.denominator)
    h = 0.0
    for n in counts.values():
        fp = n / d
        h -= fp * math.log2(fp)
    return max(h, 0.0)


def fraction_verify_cover(u, weights):
    """The covering inequality element by element, O(alpha^2) `Fraction`
    sums."""
    children = set(u.children())
    if set(weights) - children:
        return False
    if any(w < 0 for w in weights.values()):
        return False
    for i in u:
        total = sum((w for v, w in weights.items() if i in v), _ZERO)
        if total < 1:
            return False
    return True


def fraction_audit_level(lam, alpha, coeffs):
    """`region.audit_level` with one `Fraction` sum per encoder load."""
    failures = []
    if any(len(u) != alpha for u in coeffs.assignment):
        failures.append(f"level {alpha}: subset of another size")
    if any(v < 0 for v in coeffs.assignment.values()):
        failures.append(f"level {alpha}: negative coefficient")
    for l in range(1, len(lam) + 1):
        load = sum((v for u, v in coeffs.assignment.items() if l in u), _ZERO)
        if load > lam[l - 1]:
            failures.append(f"level {alpha}: capacity exceeded at encoder {l}")
    if coeffs.total != slice_f_value(lam, alpha):
        failures.append(f"level {alpha}: total differs from the optimum")
    return failures


def packing_lp(lam, alpha):
    """The packing LP that defines f_alpha: one column per alpha-subset of
    {1..L}, lex ordered, whose total weight f_alpha is the maximum under
    one capacity row per encoder.  Returns the subsets and the rows."""
    L = len(lam)
    family = subsets_of_size(L, alpha)
    lp = LinearProgram(len(family))
    for l in range(1, L + 1):
        lp.add([1 if l in u else 0 for u in family], LE, lam[l - 1])
    return family, lp


def packing_optimum_is(lam, alpha, f):
    """Whether the packing LP's optimum is f, by weak duality from two
    `feasible` calls, each answer re-verified exactly: a packing of total
    >= f, and a cover y >= 0 with sum(y_l, l in u) >= 1 on every
    alpha-subset u and lam.y <= f.  The packing fails for f above the
    optimum, the cover below it."""
    family, packing = packing_lp(lam, alpha)
    packing.add([1] * len(family), GE, f)
    cover = LinearProgram(len(lam))
    for u in family:
        cover.add([1 if l in u else 0 for l in range(1, len(lam) + 1)], GE, 1)
    cover.add(lam, LE, f)
    return feasible(packing).feasible and feasible(cover).feasible


def fraction_rate_split(rates, entropies, levels, solve=feasible):
    """`region._rate_split` with a `Fraction` per step and no closed form:
    every query builds the LP relative to the superposition split from its
    definition, with one row of no entries per hyperplane of lambda = 1 on
    the k lowest rates, k < top, after the prefix rows, then O(L^2)
    `Fraction` adds for the shares, and every Robin Hood transfer and
    re-check in `Fraction`s.  `solve` stands in for `exactlp.feasible`."""
    L = len(rates)
    order = sorted(range(L), key=rates.__getitem__)
    rank = sorted(range(L), key=order.__getitem__)
    r = [rates[l] for l in order]
    # nu[alpha, j] = mu[alpha, j] / alpha for the blocks 1 <= j < alpha
    cols = [(alpha, j) for alpha in levels if alpha > 1 for j in range(1, alpha)]
    S = sum((h / alpha for alpha, h in zip(levels, entropies)), _ZERO)
    lp = LinearProgram(len(cols))
    caps = 0
    for alpha, h in zip(levels, entropies):
        if alpha > 1:
            lp.add([alpha - j if a == alpha else 0 for a, j in cols], LE, h / alpha)
            caps += 1
    for k, R in enumerate(accumulate(r), 1):
        lp.add([a * max(k - j, 0) - k * (a - j) for a, j in cols], LE, R - k * S)
    # lambda = 1 on the k lowest rates, k < top, as a row with no entries
    for k, R in enumerate(accumulate(r[: len(levels) - 1]), 1):
        S_k = sum((h / alpha for alpha, h in zip(levels[:k], entropies)), _ZERO)
        lp.add([0] * len(cols), LE, R - k * S_k)
    res = solve(lp)
    if not res.feasible:
        y = res.certificate
        w = [-x for x in y[caps : caps + L]]
        for k, x in enumerate(y[caps + L :]):
            w[k] -= x
        lam = list(accumulate(reversed(w)))[::-1]
        if not lam[0] > 0:
            raise AssertionError("separating certificate cannot be identically zero")
        # coprime integers, as `region._rate_split` returns them
        return None, tuple(over_common_denominator(lam[p] / lam[0] for p in rank)[0])
    nu = dict(zip(cols, res.point))
    shares = []
    for alpha, h in zip(levels, entropies):
        mu = [h / alpha - sum((alpha - j) * nu[alpha, j] for j in range(1, alpha))]
        mu += [alpha * nu[alpha, j] for j in range(1, alpha)]
        x = [_ZERO] * L
        for j, height in enumerate(mu):
            for p in range(j, L):
                x[p] += height
        shares.append(x)
    load = [sum(col, _ZERO) for col in zip(*shares)]
    if any(x > cap for x, cap in zip(load, r)):
        load[-1] += sum(r, _ZERO) - sum(load, _ZERO)
    while (i := next((p for p in range(L) if load[p] > r[p]), None)) is not None:
        k = max(p for p in range(i) if load[p] < r[p])
        t = min(load[i] - r[i], r[k] - load[k]) / (load[i] - load[k])
        for x in shares + [load]:
            d = t * (x[i] - x[k])
            x[i] -= d
            x[k] += d
    for x, alpha, h in zip(shares, levels, entropies):
        if any(v < 0 for v in x) or sum(sorted(x)[:alpha], _ZERO) < h:
            raise AssertionError("witness misses a level demand")
    if any(sum(col, _ZERO) > cap for col, cap in zip(zip(*shares), r)):
        raise AssertionError("witness exceeds an encoder rate")
    return {alpha: tuple(x[p] for p in rank) for x, alpha in zip(shares, levels)}, None


def fraction_member(rates, entropies, levels, r0=None):
    """A membership verdict from the `Fraction` oracles alone: the greedy
    split by `fraction_greedy_allocation` when there is an all-access
    budget r0, the residual's rate split by `fraction_rate_split`, and the
    certificate scaled from its definition, lambda over max(lambda) for a
    plain one; lambda with lambda0 = f_m(lambda) at the split level m,
    both over the larger of f_m(lambda) and max(lambda), for an
    all-access one."""
    stored, residual, level = None, as_fractions(entropies), None
    if r0 is not None:
        stored, residual, level = fraction_greedy_allocation(r0, entropies)
    split, lam = fraction_rate_split(as_fractions(rates), residual, levels)
    if split is not None:
        if stored is not None:
            split = {a: (stored[a - 1],) + x for a, x in split.items()}
        return MembershipVerdict(member=True, witness=split)
    if r0 is None:
        top = max(lam)
        return MembershipVerdict(member=False, certificate=tuple(Fraction(x, top) for x in lam))
    f = slice_f_value(lam, level)
    top = max(f, max(lam))
    return MembershipVerdict(
        member=False, certificate=tuple(x / top for x in lam),
        certificate_lambda0=f / top, certificate_m=level,
    )


def chamber_member(rates, entropies, levels):
    """Membership by the sorted-chamber LP that the rate split replaced:
    over the encoders sorted by rate, column (alpha, j) for every j <
    alpha is a block of height mu on the L - j highest-rate encoders;
    one demand row per level, sum_j (alpha - j) mu >= H_alpha, and one
    prefix row per k, the blocks' load on the k lowest-rate encoders at
    most the sum of their rates.  Solved by the general simplex, and the
    point or the Farkas certificate re-checked here."""
    r = sorted(rates)
    cols = [(alpha, j) for alpha in levels for j in range(alpha)]
    lp = LinearProgram(len(cols))
    for alpha, h in zip(levels, entropies):
        lp.add([a - j if a == alpha else 0 for a, j in cols], GE, h)
    for k, R in enumerate(accumulate(r), 1):
        lp.add([max(k - j, 0) for _, j in cols], LE, R)
    return checked_feasible(lp)


def fraction_yz_chain(weights):
    """`covers.yz_chain` with a `Fraction` per step and no audit: the same
    descent from the top level p, p the count of positive weights, read
    along the encoders by nonincreasing weight, ties broken by index; the
    dominant-weight recursion, the shifted cover built parent by parent,
    and each level below summed parent by parent.  Subsets are bit masks,
    bit e for encoder e, until the chain is returned, with every dict in
    the library's insertion order."""
    lam = dict(enumerate(as_fractions(weights), 1))
    L = len(lam)
    ground = tuple(sorted(lam, key=lambda e: (-lam[e], e)))
    p = sum(1 for x in lam.values() if x > 0)
    events = []
    levels = {alpha: {} for alpha in range(p + 1, L + 1)}
    covers = {}
    if p:
        levels[p] = {sum(1 << e for e in ground[:p]): lam[ground[p - 1]]}
    for alpha in range(p, 1, -1):
        covers[alpha] = _fraction_descend(lam, ground, alpha, levels[alpha], events)
        levels[alpha - 1] = fraction_reconstruct(covers[alpha], levels[alpha], ground, alpha)
    sets = {u.mask: u for k in range(1, L + 1) for u in subsets_of_size(L, k)}
    out = {}
    for alpha, level in levels.items():
        assignment = {sets[u]: c for u, c in level.items()}
        for u in subsets_of_size(L, alpha):
            assignment.setdefault(u, _ZERO)
        out[alpha] = SubsetCoefficients(assignment)
    return CoefficientChain(tuple(lam.values()), out, {
        alpha: {sets[u]: {sets[v]: w for v, w in gu.items()} for u, gu in per_u.items()}
        for alpha, per_u in covers.items()
    }, events)


def _fraction_descend(lam, ground, alpha, level, events):
    """The covers from level alpha down, after the case the weights take."""
    top, rest = lam[ground[0]], sum((lam[e] for e in ground[1:]), _ZERO)
    if alpha >= 3 and top * (alpha - 2) > rest:
        events.append((alpha, CASE_2))
        t = 1 << ground[0]
        sub_level = {u ^ t: c for u, c in level.items() if u & t}
        sub = _fraction_descend(lam, ground[1:], alpha - 1, sub_level, events)
        covers = {}
        for members in combinations(ground, alpha):
            u = sum(1 << e for e in members)
            children = [u ^ 1 << e for e in reversed(members)]
            if u & t:
                covers[u] = {v: sub[u ^ t][v ^ t] if v & t else _ZERO for v in children}
            else:
                covers[u] = dict.fromkeys(children, Fraction(1, alpha - 1))
        return covers
    if len(ground) == 2:
        events.append((alpha, CASE_BASE))
    else:
        events.append((alpha, CASE_1 if top * (alpha - 1) <= rest else CASE_3))
    return fraction_case3(lam, ground, alpha, level)


def fraction_case3(lam, ground, alpha, level):
    """The shifted cover with the weights built parent by parent, O(alpha^2)
    `Fraction` operations per parent: lam is encoder -> weight and level
    mask -> weight."""
    f_val = sum(level.values(), _ZERO)
    if f_val <= 0:
        raise AssertionError(f"{CASE_3}: needs a positive level total")
    tilde = {e: _ZERO for e in ground}
    for u, c in level.items():
        if c:
            for e in ground:
                if u >> e & 1:
                    tilde[e] += c
    b = [lam[e] - tilde[e] for e in ground]
    beta = sum((b[0] - b[m - 1] for m in range(2, alpha)), _ZERO)
    base = (_ONE - beta / f_val) / (alpha - 1)
    covers = {}
    for members in combinations(ground, alpha):
        u = sum(1 << e for e in members)
        # child tau drops the tau-th member; the last member goes first
        child = {tau: u ^ 1 << members[tau - 1] for tau in range(alpha, 0, -1)}
        gu = dict.fromkeys(child.values(), base)
        for m in range(2, alpha + 1):
            delta = (b[m - 2] - b[m - 1]) / f_val
            if delta == 0:
                continue
            for tau in range(m, alpha + 1):
                gu[child[tau]] += delta
        covers[u] = gu
    return covers


def fraction_reconstruct(covers, level, ground, alpha):
    """Level alpha-1 as cover-weighted parent sums, one `Fraction` multiply
    and add per parent and child."""
    nxt = {sum(1 << e for e in v): _ZERO for v in combinations(ground, alpha - 1)}
    for u, gu in covers.items():
        c = level.get(u)
        if c:
            for v, w in gu.items():
                if w:
                    nxt[v] += w * c
    return nxt


def fraction_conditional_chain(weights, n_secure):
    """`covers.conditional_chain` with a `Fraction` per step and no audit:
    `fraction_yz_chain`'s levels pushed through its covers."""
    lam = as_fractions(weights)
    return ConditionalAssignment(lam, n_secure, fraction_push(fraction_yz_chain(lam), n_secure))


def fraction_push(chain, n_secure):
    """The adversary split of a chain's levels from L - n_secure down, with
    one `Fraction` multiply and add per parent, child and adversary set."""
    top = chain.ground_size - n_secure
    split = {top: {u: {complement(u): c} for u, c in chain.levels[top].assignment.items()}}
    for alpha in range(top, 1, -1):
        per_u = chain.covers.get(alpha)
        lower = {}
        for u, parts in split[alpha].items():
            g_u = per_u[u] if per_u else dict.fromkeys(u.children(), _ZERO)
            for v, g in g_u.items():
                into = lower.setdefault(v, {})
                for a, s in parts.items():
                    into[a] = into.get(a, _ZERO) + g * s
        if not per_u:
            fresh = chain.levels[alpha - 1].assignment
            for v, into in lower.items():
                into[min(into, key=lambda a: a.members)] = fresh[v]
        split[alpha - 1] = lower
    return split


# all-access hyperplanes --------------------------------------------------


def smdca_f(lambda0, weights, alpha):
    """Hyperplane coefficient with an all-access encoder of weight lambda0."""
    l0 = as_fraction(lambda0)
    if l0 < 0:
        raise ValueError("lambda0 must be nonnegative")
    return min(f_value(weights, alpha), l0)


def residual_hyperplane(profile, entropies, m, r0):
    """g_m from a precomputed coefficient profile: the hyperplane of the
    residual region after storing the first m sources (less the budget)."""
    h = entropies
    L = len(profile)
    head = sum(h[:m], _ZERO) - r0
    tail = sum((profile[a - 1] * h[a - 1] for a in range(m + 1, L + 1)), _ZERO)
    return profile[m - 1] * head + tail


def g_m(m, weights, entropies, r0):
    """Residual-region hyperplane value after storing the first m sources
    (less the budget) at the all-access encoder."""
    lam, h = as_fractions(weights), as_fractions(entropies)
    if len(h) != len(lam):
        raise ValueError("weights and entropies must have equal length")
    if not 1 <= m <= len(lam):
        raise ValueError(f"m must be in 1..{len(lam)}, got {m}")
    return residual_hyperplane(f_profile(lam), h, m, as_fraction(r0))


def greedy_matches_region(weights, entropies, r0):
    """The greedy split level attains the max over all residual hyperplanes."""
    lam, h, r0 = as_fractions(weights), as_fractions(entropies), as_fraction(r0)
    L = len(lam)
    alloc = greedy_allocation(r0, h)
    q = alloc.level if alloc.level is not None else L
    prof = f_profile(lam)
    values = [residual_hyperplane(prof, h, m, r0) for m in range(1, L + 1)]
    return max(values) == values[q - 1]


def slow_mul(a, b, poly, order):
    """Carry-less multiply then reduce; independent of the table path."""
    acc = 0
    x = a
    while b:
        if b & 1:
            acc ^= x
        b >>= 1
        x <<= 1
        if x & order:
            x ^= poly
    return acc


def lagrange_product(src_points, dst_points, poly, order):
    """M[d][s] = prod_{t != s} (dst_d - x_t) / (x_s - x_t) in GF(order)
    under `poly`, by the product formula: every product bit by bit, and
    each denominator inverted as its (order - 2)-th power."""
    out = [[1] * len(src_points) for _ in dst_points]
    for s, xs in enumerate(src_points):
        den = 1
        for t, xt in enumerate(src_points):
            if t != s:
                den = slow_mul(den, xs ^ xt, poly, order)
        inv = 1
        for _ in range(order - 2):
            inv = slow_mul(inv, den, poly, order)
        for row, x in zip(out, dst_points):
            num = inv
            for t, xt in enumerate(src_points):
                if t != s:
                    num = slow_mul(num, x ^ xt, poly, order)
            row[s] = num
    return out


def poly_eval(coeffs, x, poly, order):
    """sum_j coeffs[j] x^j in GF(order) under `poly`, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = slow_mul(acc, x, poly, order) ^ c
    return acc


# GF(2^4) under x^4 + x + 1: small enough to enumerate every key
GF16 = GF(16, 0x13)


def checked_solve(gf, matrix, rhs):
    """Gauss-Jordan elimination with `GF.solve`'s pivot choice, on the
    checked scalar operations: one `gf.inv` per pivot and one `gf.mul`
    per product."""
    n = len(matrix)
    m = [list(row) + [v] for row, v in zip(matrix, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise ValueError("singular system")
        m[col], m[piv] = m[piv], m[col]
        inv = gf.inv(m[col][col])
        m[col] = [gf.mul(inv, v) for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a ^ gf.mul(f, b) for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def checked_vandermonde(gf, points, width):
    """Rows x^0..x^(width - 1), one `gf.pow` per entry."""
    return [[gf.pow(x, j) for j in range(width)] for x in points]


# rank certificates for the codec's layers ----------------------------------


def ranks(gf, rows, head):
    """(rank of the first `head` columns of `rows`, rank of all columns),
    from one forward elimination in column order on `gf.mul` and
    `gf.inv`: the pivots that fall in the first `head` columns are those
    columns' rank."""
    m = [list(row) for row in rows]
    width = len(m[0]) if m else 0
    rank = head_rank = 0
    for col in range(width):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is not None:
            m[rank], m[piv] = m[piv], m[rank]
            inv = gf.inv(m[rank][col])
            prow = m[rank] = [gf.mul(inv, v) for v in m[rank]]
            for r in range(rank + 1, len(m)):
                f = m[r][col]
                if f:
                    m[r] = [a ^ gf.mul(f, b) for a, b in zip(m[r], prow)]
            rank += 1
        if col == head - 1:
            head_rank = rank
    return head_rank, rank


def layer_leak(gf, rows, num_keys, shares):
    """rank M_U - rank K_U: how many message symbols the shares U of a
    linear layer determine, under uniform keys.  `rows` is the layer's
    encode map, one row per share, message columns first and then
    `num_keys` key columns; M_U is its rows in `shares` and K_U their key
    columns, which the elimination takes first."""
    split = len(rows[0]) - num_keys
    keys, total = ranks(gf, [rows[i][split:] + rows[i][:split] for i in shares], num_keys)
    return total - keys


def layer_faults(gf, rows, num_keys, subsets):
    """The share sets among `subsets` on which a layer breaks the paper's
    decoding or secrecy constraint, each as (set, "decoding") or (set,
    "secrecy").  Any message + keys shares must determine every message
    symbol (rank M_U - rank K_U = message), and any `num_keys` or fewer
    must determine none (rank M_U = rank K_U)."""
    message = len(rows[0]) - num_keys
    faults = []
    for u in subsets:
        leak = layer_leak(gf, rows, num_keys, u)
        if len(u) >= message + num_keys and leak != message:
            faults.append((tuple(u), "decoding"))
        if len(u) <= num_keys and leak:
            faults.append((tuple(u), "secrecy"))
    return faults


# sets and pmfs -------------------------------------------------------------


def complement(u):
    """The encoders of {1..L} that are not in u."""
    L = u.ground_size
    return EncoderSet(tuple(e for e in range(1, L + 1) if e not in u.members), L)


def product_table(marginals):
    """outcome -> prod_i marginals[i][outcome_i], zero masses left out."""
    table = {}
    for outcome in product(*(range(len(m)) for m in marginals)):
        p = _ONE
        for s, m in zip(outcome, marginals):
            p *= Fraction(m[s])
        if p:
            table[outcome] = p
    return table


def random_product_table(rng, sizes):
    """The product of one random marginal per alphabet size, each on a
    grid of 256 steps."""
    marginals = []
    for k in sizes:
        while True:
            weights = [rng.randrange(257) for _ in range(k)]
            if sum(weights):
                break
        marginals.append([Fraction(w, sum(weights)) for w in weights])
    return product_table(marginals)


def uniform_table(points):
    """Each distinct point at mass (times it occurs) / len(points), in
    order of first occurrence."""
    counts = {}
    for o in points:
        counts[tuple(o)] = counts.get(tuple(o), 0) + 1
    return {o: Fraction(c, len(points)) for o, c in counts.items()}
