"""Rate regions for multilevel diversity coding.

The region of each scheme is cut out by supporting hyperplanes whose
level coefficients f_alpha have a closed form (`f_value`).  A whole
profile (`f_profile`) sorts the weights once, puts them over one
denominator and compares integer suffix sums, one `Fraction` per level.
An explicit optimal packing (`f_alpha`) is laid out from the same closed
form by McNaughton's wrap-around rule, with no LP and no enumeration of
the level, and is audited exactly (`audit_level`, which the chain audits
share).  Membership, shared by the three schemes, is one LP with
O(L^2) entries over the encoders sorted by rate: f_alpha is symmetric,
so the worst weight vector is ordered opposite to the rates.
Non-members come back with the separating weights lambda read off the
Farkas multipliers of its prefix rows; members come back with a
per-level rate allocation that Robin Hood transfers carry from the LP's
sorted blocks onto the rates.  The allocation is built, moved and
re-checked as integers over one denominator, with one `Fraction` per
returned share.  Both are re-checked exactly.  All arithmetic is
rational, no floats.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .exactlp import GE, LE, LinearProgram, as_fraction, as_fractions, feasible
from .exactlp import over_common_denominator
from .subsets import EncoderSet

# unused here: the benchmark tracer (perfbench/tracing.py) wraps these names
from .exactlp import solve_max  # noqa: F401
from .subsets import subsets_of_size  # noqa: F401

MAX_MEMBERSHIP_GROUND = 24

_ZERO = Fraction(0)


def _nonnegative(values, what: str) -> tuple[Fraction, ...]:
    v = as_fractions(values)
    if not v:
        raise ValueError(f"{what} must be nonempty")
    if any(x.numerator < 0 for x in v):
        raise ValueError(f"{what} must be nonnegative")
    return v


def _dot(xs, ys) -> Fraction:
    return sum((a * b for a, b in zip(xs, ys)), _ZERO)


@dataclass(frozen=True)
class SubsetCoefficients:
    """Optimal weights on the subsets of one size for one weight vector."""

    assignment: dict[EncoderSet, Fraction]

    @property
    def total(self) -> Fraction:
        return sum(self.assignment.values(), _ZERO)


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    # per level alpha, the rate split across encoders; for the all-access
    # variant index 0 of each tuple is the encoder-0 share
    witness: dict[int, tuple[Fraction, ...]] | None = None
    certificate: tuple[Fraction, ...] | None = None
    certificate_lambda0: Fraction | None = None
    certificate_m: int | None = None


@dataclass(frozen=True)
class GreedyAllocation:
    stored_at_zero: tuple[Fraction, ...]
    residual: tuple[Fraction, ...]
    level: int | None  # None once the all-access budget covers everything


def _level_weights(weights, alpha: int) -> tuple[Fraction, ...]:
    lam = _nonnegative(weights, "weights")
    if not 1 <= alpha <= len(lam):
        raise ValueError(f"alpha must be in 1..{len(lam)}, got {alpha}")
    return lam


def _least_ratio(suffix, alpha: int) -> tuple[int, int]:
    """(S_j, alpha - j) at the least j < alpha minimizing S_j / (alpha - j),
    where suffix[j] == S_j, picked by cross-multiplication."""
    s, k = suffix[0], alpha
    for j in range(1, alpha):
        if suffix[j] * k < s * (alpha - j):
            s, k = suffix[j], alpha - j
    return s, k


def _profile(lam, alphas) -> list[Fraction]:
    """f_alpha at each alpha of `alphas`, from one sort of the weights:
    over one denominator d, the numerators sorted nonincreasing give
    integer suffix sums S_j, and each level builds one `Fraction`."""
    ns, d = over_common_denominator(lam)
    ns.sort(reverse=True)
    suffix = list(accumulate(reversed(ns)))[::-1]  # suffix[j] == sum(ns[j:])
    return [Fraction(s, k * d) for s, k in (_least_ratio(suffix, a) for a in alphas)]


def f_value(weights, alpha: int) -> Fraction:
    """The level-alpha coefficient in closed form: with the weights sorted
    nonincreasing, the minimum over j < alpha of the sum of all but the j
    largest weights divided by alpha - j."""
    return _profile(_level_weights(weights, alpha), (alpha,))[0]


def audit_level(lam, alpha: int, coeffs: SubsetCoefficients) -> list[str]:
    """Every subset of size alpha, every coefficient nonnegative, every
    encoder within its capacity, and the total equal to `f_value`; the
    subsets must lie in {1..len(lam)}.  The coefficients are integers n
    over one denominator d, so one pass sums every encoder's load."""
    failures = []
    if any(len(u.members) != alpha for u in coeffs.assignment):
        failures.append(f"level {alpha}: subset of another size")
    counts, d = over_common_denominator(coeffs.assignment.values())
    if any(n < 0 for n in counts):
        failures.append(f"level {alpha}: negative coefficient")
    load = [0] * (len(lam) + 1)
    for u, n in zip(coeffs.assignment, counts):
        if n:
            for l in u.members:
                load[l] += n
    for l, cap in enumerate(lam, 1):
        if load[l] * cap.denominator > cap.numerator * d:
            failures.append(f"level {alpha}: capacity exceeded at encoder {l}")
    f = f_value(lam, alpha)
    if sum(counts) * f.denominator != f.numerator * d:
        failures.append(f"level {alpha}: total differs from the optimum")
    return failures


def f_alpha(weights, alpha: int) -> SubsetCoefficients:
    """An optimal packing at one level: weights on size-alpha subsets, at
    most lam_l in all on the subsets that hold encoder l, with the
    greatest total, `f_value`.  It is laid out from the closed form, on
    integers over one denominator: with f = f_value and S_j / (alpha - j)
    its least ratio, the j encoders heavier than f sit in every subset,
    and the others, laid end to end on alpha - j rows of length f
    (McNaughton's wrap-around rule), give one alpha-subset per cut of
    [0, f).  So at most L subsets carry weight, and only those are
    listed.  The packing is re-checked exactly by `audit_level`."""
    lam = _level_weights(weights, alpha)
    ns, d = over_common_denominator(lam)
    order = sorted(range(len(lam)), key=ns.__getitem__, reverse=True)
    s, k = _least_ratio(list(accumulate(ns[l] for l in reversed(order)))[::-1], alpha)
    heavy, rest = [l + 1 for l in order[: alpha - k]], order[alpha - k :]
    # in units of 1 / (k d) a row is s long and encoder l is k * ns[l]
    ends = list(accumulate(k * ns[l] for l in rest))
    cuts = sorted({e % s for e in ends}) + [s] if s else []
    counts: dict[EncoderSet, int] = {}
    for a, b in zip(cuts, cuts[1:]):
        members = heavy + [rest[bisect_right(ends, r * s + a)] + 1 for r in range(k)]
        u = EncoderSet.of(members, len(lam))
        counts[u] = counts.get(u, 0) + b - a
    packing = SubsetCoefficients({u: Fraction(n, k * d) for u, n in counts.items()})
    if failures := audit_level(lam, alpha, packing):
        raise AssertionError("packing fails its audit: " + "; ".join(failures))
    return packing


def f_profile(weights) -> tuple[Fraction, ...]:
    """(f_1, ..., f_L); nonincreasing, with f_1 equal to the weight sum."""
    lam = _nonnegative(weights, "weights")
    return tuple(_profile(lam, range(1, len(lam) + 1)))


def min_sum_rate(entropies) -> Fraction:
    """Sum over levels of (L/alpha) times the level entropy."""
    h = _nonnegative(entropies, "entropies")
    L = len(h)
    return sum((Fraction(L, a) * h[a - 1] for a in range(1, L + 1)), _ZERO)


def smdca_hyperplane(m: int, weights, entropies) -> Fraction:
    """Right-hand side of the m-th all-access supporting hyperplane:
    f_m(lam) times H_1 + ... + H_m, plus f_alpha(lam) H_alpha above m."""
    lam = _nonnegative(weights, "weights")
    h = _nonnegative(entropies, "entropies")
    if len(h) != len(lam):
        raise ValueError("weights and entropies must have equal length")
    if not 1 <= m <= len(lam):
        raise ValueError(f"m must be in 1..{len(lam)}, got {m}")
    prof = _profile(lam, range(1, len(lam) + 1))
    return prof[m - 1] * sum(h[:m], _ZERO) + _dot(prof[m:], h[m:])


# membership ------------------------------------------------------------


def _rate_split(rates, entropies, levels):
    """Per-level rate split by one LP over the encoders sorted by rate.

    With the rates ascending, column (alpha, j) for j < alpha is a block
    of height mu on the L - j highest-rate encoders, of which any alpha
    encoders hold at least (alpha - j) mu.  Rows: one demand row per
    level, sum_j (alpha - j) mu >= H_alpha, and one prefix row per k: the
    blocks' load on the k lowest-rate encoders is at most the sum of
    their rates.  Returns (witness, None) when the LP is feasible: the
    blocks' per-level loads, carried onto the rates by Robin Hood
    transfers, which keep every level's sum of its alpha smallest shares.
    Else (None, lam): with w the Farkas multipliers of the prefix rows,
    lam sorts as the suffix sums of w, so lam.r < sum_a f_a(lam) H_a,
    scaled to a maximum of 1.  The witness is re-checked exactly.
    """
    L = len(rates)
    order = sorted(range(L), key=rates.__getitem__)
    rank = sorted(range(L), key=order.__getitem__)  # encoder -> sorted position
    r, D = over_common_denominator([rates[l] for l in order])
    cols = [(ai, j) for ai, alpha in enumerate(levels) for j in range(alpha)]
    lp = LinearProgram(len(cols))
    for ai, (alpha, h) in enumerate(zip(levels, entropies)):
        lp.add([alpha - j if bi == ai else 0 for bi, j in cols], GE, h)
    for k, cap in enumerate(accumulate(r), 1):
        lp.add([max(k - j, 0) for _, j in cols], LE, Fraction(cap, D))
    res = feasible(lp)
    if not res.feasible:
        y, _ = over_common_denominator(res.certificate[len(levels):])
        lam = list(accumulate(-n for n in reversed(y)))[::-1]
        if not lam[0] > 0:
            raise AssertionError("separating certificate cannot be identically zero")
        return None, tuple(Fraction(lam[p], lam[0]) for p in rank)
    # the point and the rates over one denominator D; a level's shares are
    # the prefix sums of its block heights
    mu, d = over_common_denominator(res.point)
    e = lcm(D, d)
    r = [x * (e // D) for x in r]
    heights = iter([x * (e // d) for x in mu])
    D = e
    shares = []
    for alpha in levels:
        x = list(accumulate(next(heights) for _ in range(alpha)))
        shares.append(x + [x[-1]] * (L - alpha))
    load = [sum(col) for col in zip(*shares)]
    load[-1] += sum(r) - sum(load)
    # r is majorized by load: move mass from the first entry above its rate
    # to the last one below it, the same fraction t = num / den in every
    # level, after scaling every vector and D by den
    while (i := next((p for p in range(L) if load[p] > r[p]), None)) is not None:
        k = max(p for p in range(i) if load[p] < r[p])
        num = min(load[i] - r[i], r[k] - load[k])
        den = load[i] - load[k]
        g = gcd(num, den)
        num, den = num // g, den // g
        for x in shares + [load]:
            move = num * (x[i] - x[k])
            if den != 1:
                x[:] = [v * den for v in x]
            x[i] -= move
            x[k] += move
        if den != 1:
            r = [v * den for v in r]
            D *= den
    for x, alpha, h in zip(shares, levels, entropies):
        if any(v < 0 for v in x) or (
            sum(sorted(x)[:alpha]) * h.denominator < h.numerator * D
        ):
            raise AssertionError("witness misses a level demand")
    if any(sum(col) > cap for col, cap in zip(zip(*shares), r)):
        raise AssertionError("witness exceeds an encoder rate")
    return {
        alpha: tuple(Fraction(x[p], D) for p in rank) for x, alpha in zip(shares, levels)
    }, None


def _member_inputs(rates, entropies, n_secure: int):
    """Validated rates, entropies and constraining levels of a query."""
    r = _nonnegative(rates, "rates")
    L = len(r)
    if not 0 <= n_secure <= L - 1:
        raise ValueError(f"n_secure must be in 0..{L - 1}, got {n_secure}")
    h = _nonnegative(entropies, "entropies")
    if len(h) != L - n_secure:
        raise ValueError("entropies must have one entry per constraining level")
    if L > MAX_MEMBERSHIP_GROUND:
        raise ValueError(f"membership supports at most L={MAX_MEMBERSHIP_GROUND}")
    return r, h, range(1, L - n_secure + 1)


def smdc_member(rates, entropies) -> MembershipVerdict:
    """Exact membership in the superposition region, with witness or
    separating weight vector."""
    return ssmdc_member(rates, entropies, 0)


def smdca_member(r0, rates, entropies) -> MembershipVerdict:
    """Membership with an all-access encoder of rate r0: the all-access
    encoder stores the greedy prefix, and the rates must carry the
    residual in the plain region."""
    r0 = as_fraction(r0)
    r, h, levels = _member_inputs(rates, entropies, 0)
    alloc = greedy_allocation(r0, h)
    split, lam = _rate_split(r, alloc.residual, levels)
    if split is not None:
        witness = {a: (alloc.stored_at_zero[a - 1],) + split[a] for a in levels}
        return MembershipVerdict(member=True, witness=witness)
    # the residual's violated hyperplane lam.r < sum_a f_a(lam) h'_a is
    # g_q(lam) at the split level q, which is the all-access hyperplane
    # at lambda0 = f_q(lam)
    q = alloc.level
    lam0 = f_value(lam, q)
    scale = max(lam0, 1)
    lam0, lam = lam0 / scale, tuple(x / scale for x in lam)
    rhs = _dot((min(f, lam0) for f in _profile(lam, levels)), h)
    if not lam0 * r0 + _dot(lam, r) < rhs:
        raise AssertionError("certificate must violate the all-access hyperplane")
    return MembershipVerdict(
        member=False, certificate=lam, certificate_lambda0=lam0, certificate_m=q
    )


def ssmdc_member(rates, entropies, n_secure: int) -> MembershipVerdict:
    """Membership for the secure variant: only levels 1..L-N constrain."""
    r, h, levels = _member_inputs(rates, entropies, n_secure)
    witness, lam = _rate_split(r, h, levels)
    if witness is not None:
        return MembershipVerdict(member=True, witness=witness)
    if not _dot(lam, r) < _dot(_profile(lam, levels), h):
        raise AssertionError("Farkas certificate must violate a supporting hyperplane")
    return MembershipVerdict(member=False, certificate=lam)


# all-access greedy allocation -------------------------------------------


def greedy_allocation(r0, entropies) -> GreedyAllocation:
    """Commit the all-access budget to sources in priority order.

    Source alpha stores min(h_alpha, r0 - sum of h_beta, beta < alpha),
    clipped at zero: sources below the split level are stored whole, the
    split level (the first with a residual) gets the leftover budget,
    everything above stays with the randomly accessible encoders.
    """
    r0 = as_fraction(r0)
    if r0.numerator < 0:
        raise ValueError("r0 must be nonnegative")
    h = _nonnegative(entropies, "entropies")
    before = accumulate(h, initial=_ZERO)
    stored = tuple(min(x, max(_ZERO, r0 - b)) for x, b in zip(h, before))
    residual = tuple(x - s for x, s in zip(h, stored))
    level = next((a for a, x in enumerate(residual, 1) if x), None)
    return GreedyAllocation(stored_at_zero=stored, residual=residual, level=level)
