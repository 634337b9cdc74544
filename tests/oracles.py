"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the library's solver paths: linear programs are
checked by enumerating basic feasible points of the polytope, linear
systems by plain Gaussian elimination over Fractions.  Membership is
decided by the full subset system, too large for vertex enumeration, so
it goes through the general simplex, which no membership path uses, and
its point or Farkas certificate is re-checked here.  `FractionSimplex`
is the library's condensed tableau with one `Fraction` per cell instead
of integers over a running determinant; both take the same pivots, so
`reference_solve_max` and `reference_feasible` must give exactly the
library's answers.  `packing_lp` is the LP that defines f_alpha, for
the closed form and the laid-out packings to match.  The chain audits,
f_alpha's closed form, subset entropies, the membership
rate split, the case-3 covers, the level reconstruction and the
conditional push have `Fraction`-per-step references here too, which
the library's integer sums must match exactly, down to the insertion
order of every dict.  Subset entropies also have a one-pass reference
that sums each marginal straight from the joint's integer counts, which
the library's cached and projected marginals must match bit for bit.
The all-access hyperplanes g_m, whose maximum the greedy split must
attain, are theorem checks that only the tests call.  On the codec side,
`lagrange_product` is the Lagrange basis by its product formula, over
a bitwise carry-less multiply that shares no table with `smdc.gf`.
"""

import math
from fractions import Fraction
from itertools import accumulate, combinations
from operator import itemgetter

from smdc.covers import CASE_3
from smdc.exactlp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    FeasibilityResult,
    LinearProgram,
    LpSolution,
    as_fraction,
    as_fractions,
    feasible,
)
from smdc.region import f_profile, f_value, greedy_allocation
from smdc.subsets import subsets_of_size

LE = "<="
GE = ">="

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


class FractionSimplex:
    """`exactlp._Tableau` with one normalised `Fraction` per cell: the
    condensed tableau x_B = beta + T x_N over the slacks of the rows
    scaled by the lcm of their denominators, the same dual phase, switch
    to Bland's rule, primal phase and read-out."""

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
            if self.bland:
                r = min(rows, key=lambda i: self.basis[i])
                cols = [j for j in range(self.n) if self.T[r][j] > 0]
                if not cols:
                    return r
                c = min(cols, key=lambda j: self.nonbasic[j])
            else:
                r = min(rows, key=lambda i: self.beta[i])
                c = max(range(self.n), key=lambda j: self.T[r][j])
                if not self.T[r][c] > 0:
                    return r
            self._pivot(r, c)
            if not self.bland:
                self.bland = sorted(self.basis) in seen
                seen.append(sorted(self.basis))

    def primal_phase(self) -> str:
        cost = list(self.lp.objective) + [_ZERO] * self.m
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


def reference_solve_max(lp):
    """`exactlp.solve_max` on the Fraction tableau, without its checks."""
    sx = FractionSimplex(lp)
    r = sx.dual_phase()
    if r is not None:
        return LpSolution(status=INFEASIBLE, certificate=sx.farkas(r))
    if sx.primal_phase() == UNBOUNDED:
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
    integer counts summed from the joint in one pass with no cache."""
    # one variable gives bare symbols as keys, which group alike
    key = itemgetter(*(m - 1 for m in sorted(set(members))))
    counts = {}
    for outcome, n in pmf._counts.items():
        k = key(outcome)
        counts[k] = counts.get(k, 0) + n
    h = 0.0
    for n in counts.values():
        fp = n / pmf._denominator
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
    {1..L}, lex ordered, whose total weight is maximized under one
    capacity row per encoder.  Returns the subsets and the LP."""
    L = len(lam)
    family = subsets_of_size(L, alpha)
    lp = LinearProgram(len(family), [1] * len(family))
    for l in range(1, L + 1):
        lp.add([1 if l in u else 0 for u in family], LE, lam[l - 1])
    return family, lp


def fraction_rate_split(rates, entropies, levels, solve=feasible):
    """`region._rate_split` with a `Fraction` per step: O(L^2) `Fraction`
    adds for the shares, and every Robin Hood transfer and re-check in
    `Fraction`s.  `solve` stands in for `exactlp.feasible`."""
    L = len(rates)
    order = sorted(range(L), key=rates.__getitem__)
    rank = sorted(range(L), key=order.__getitem__)
    r = [rates[l] for l in order]
    cols = [(ai, j) for ai, alpha in enumerate(levels) for j in range(alpha)]
    lp = LinearProgram(len(cols))
    for ai, (alpha, h) in enumerate(zip(levels, entropies)):
        lp.add([alpha - j if bi == ai else 0 for bi, j in cols], GE, h)
    for k, cap in enumerate(accumulate(r), 1):
        lp.add([max(k - j, 0) for _, j in cols], LE, cap)
    res = solve(lp)
    if not res.feasible:
        w = [-y for y in res.certificate[len(levels):]]
        lam = list(accumulate(reversed(w)))[::-1]
        if not lam[0] > 0:
            raise AssertionError("separating certificate cannot be identically zero")
        return None, tuple(lam[p] / lam[0] for p in rank)
    shares = [[_ZERO] * L for _ in levels]
    for (ai, j), mu in zip(cols, res.point):
        for p in range(j, L):
            shares[ai][p] += mu
    load = [sum(col, _ZERO) for col in zip(*shares)]
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


def fraction_case3(lam, ground, alpha, level):
    """`covers._case3` with the weights built parent by parent, O(alpha^2)
    `Fraction` operations per parent.  Subsets are bit masks, bit e for
    encoder e."""
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
    """`covers._reconstruct` with one `Fraction` multiply and add per
    parent and child."""
    nxt = {sum(1 << e for e in v): _ZERO for v in combinations(ground, alpha - 1)}
    for u, gu in covers.items():
        c = level.get(u)
        if c:
            for v, w in gu.items():
                if w:
                    nxt[v] += w * c
    return nxt


def fraction_push(chain, n_secure):
    """`covers._push` with one `Fraction` multiply and add per parent,
    child and adversary set."""
    top = chain.ground_size - n_secure
    split = {top: {u: {u.complement(): c} for u, c in chain.levels[top].assignment.items()}}
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


def fraction_level_coefficients(assignment, alpha):
    """`ConditionalAssignment.level_coefficients` with one `Fraction` sum
    per subset."""
    return {u: sum(parts.values(), _ZERO) for u, parts in assignment.split[alpha].items()}


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
