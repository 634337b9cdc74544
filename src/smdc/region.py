"""Rate regions for multilevel diversity coding.

The region of each scheme is cut out by supporting hyperplanes whose
level coefficients f_alpha have a closed form (`f_value`).  A whole
profile (`f_profile`) sorts the weights once, puts them over one
denominator and finds every level's least ratio of integer suffix sums
in one pointer sweep, since the minimizing j never decreases as alpha
grows; one `Fraction` per level.
An explicit optimal packing (`f_alpha`) is laid out from the same closed
form by McNaughton's wrap-around rule, with no LP and no enumeration of
the level, and is audited exactly (`audit_level`, on the integer core
`audit_counts` that the chain audits share).  Membership, shared by the
three schemes, works over the encoders sorted by rate: f_alpha is
symmetric, so the worst weight vector is ordered opposite to the rates.
Two cases have closed forms on the integer prefix sums of the sorted
rates.  A rate vector whose lowest rate is at least the superposition
point S = sum_alpha H_alpha / alpha is a member, with the superposition
split (H_alpha / alpha of each level on every encoder) as its witness:
one value per level, re-checked on its own numerators.  One whose k
lowest rates sum to less than k sum_{alpha <= k} H_alpha / alpha is a
non-member, separated by lambda = 1 on those k rates.  Only the rate
vectors between the two build an LP, with O(L^2) entries, written
relative to the superposition split: one cap row per level alpha >= 2
and one prefix row per k, shifted by the superposition load, so its
slack basis is that split.  Its non-members come back with the
separating weights lambda read off the Farkas multipliers of its prefix
rows; its members come back with a per-level rate allocation that Robin
Hood transfers carry from the LP's sorted blocks onto the rates.  Both
are built, moved and re-checked exactly as integers over one
denominator, with one `Fraction` per distinct returned entry; no
arithmetic uses floats.  Every non-member's weights are re-checked
against their hyperplane (`_separates`).  The LP's rows depend only on L
and the constraining levels, so they are built once per shape
(`_chamber`) and added as ints with integer right-hand sides.  The
all-access greedy split (`_greedy_split`) runs on the integer numerators
that the query's validation already holds, and hands the residual to the
rate split as integers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, lcm
from operator import gt, mul

from ._record import Record
from .exactlp import LE, LinearProgram, as_fraction, as_fractions, feasible
from .exactlp import over_common_denominator
from .subsets import EncoderSet

# unused here: the benchmark tracer (perfbench/tracing.py) wraps these names;
# the library solves no LP to optimality, so solve_max is only a placeholder
# for the tracer's getattr, and its metrics read 0
from .subsets import subsets_of_size  # noqa: F401
solve_max = None

MAX_MEMBERSHIP_GROUND = 24

_ZERO = Fraction(0)


def _scaled(values, what: str) -> tuple[tuple[Fraction, ...], list[int], int]:
    """values as `Fraction`s, refused when empty or negative, with their
    numerators over one denominator: each value's ratio is read once, and
    the signs are checked on the numerators."""
    v = as_fractions(values)
    if not v:
        raise ValueError(f"{what} must be nonempty")
    ns, d = over_common_denominator(v)
    if min(ns) < 0:
        raise ValueError(f"{what} must be nonnegative")
    return v, ns, d


@dataclass(frozen=True)
class SubsetCoefficients:
    """Optimal weights on the subsets of one size for one weight vector."""

    assignment: dict[EncoderSet, Fraction]

    @property
    def total(self) -> Fraction:
        return sum(self.assignment.values(), _ZERO)


@dataclass(frozen=True)
class MembershipVerdict:
    """A rate vector's verdict, with a member's witness or a nonmember's certificate."""

    member: bool
    # per level alpha, the rate split across encoders; for the all-access
    # variant index 0 of each tuple is the encoder-0 share
    witness: dict[int, tuple[Fraction, ...]] | None = None
    certificate: tuple[Fraction, ...] | None = None
    certificate_lambda0: Fraction | None = None
    certificate_m: int | None = None


class GreedyAllocation(Record):
    __slots__ = _fields = ("stored_at_zero", "residual", "level")

    def __init__(self, stored_at_zero: tuple[Fraction, ...], residual: tuple[Fraction, ...],
                 level: int | None) -> None:  # None once the all-access budget covers everything
        self._init(stored_at_zero, residual, level)


def _level_weights(weights, alpha: int) -> tuple[tuple[Fraction, ...], list[int], int]:
    scaled = _scaled(weights, "weights")
    if not 1 <= alpha <= len(scaled[0]):
        raise ValueError(f"alpha must be in 1..{len(scaled[0])}, got {alpha}")
    return scaled


def _least_ratios(ns, alphas) -> list[tuple[int, int]]:
    """(S_j, alpha - j) at each alpha of the ascending `alphas`, for the
    least j < alpha minimizing S_j / (alpha - j), where ns are integers
    sorted nonincreasing and S_j = sum(ns[j:]).

    S_{j+1} / (alpha - j - 1) < S_j / (alpha - j) exactly when ns[j] (alpha
    - j) > S_j, and once that fails it fails for every larger j, as ns
    falls and the ratio no longer does: the least minimizer is the first
    j where it fails.  A larger alpha only makes it fail later, so one
    pointer sweeps all the levels."""
    out = []
    s, j = sum(ns), 0
    for a in alphas:
        while j < a - 1 and ns[j] * (a - j) > s:
            s -= ns[j]
            j += 1
        out.append((s, a - j))
    return out


def f_value(weights, alpha: int) -> Fraction:
    """The level-alpha coefficient in closed form: with the weights sorted
    nonincreasing, the minimum over j < alpha of the sum of all but the j
    largest weights divided by alpha - j."""
    _, ns, d = _level_weights(weights, alpha)
    ((s, k),) = _least_ratios(sorted(ns, reverse=True), (alpha,))
    return Fraction(s, k * d)


def audit_level(lam, alpha: int, coeffs: SubsetCoefficients) -> list[str]:
    """Every subset of size alpha, every coefficient nonnegative, every
    encoder within its capacity, and the total equal to `f_value`; the
    subsets must lie in {1..len(lam)}."""
    f = f_value(lam, alpha)
    _, caps, D = _level_weights(lam, alpha)
    counts, d = over_common_denominator(coeffs.assignment.values())
    return audit_counts(caps, D, alpha, (f.numerator, f.denominator), coeffs.assignment,
                        counts, d)


def audit_counts(caps, D: int, alpha: int, f: tuple[int, int], subsets, counts,
                 d: int) -> list[str]:
    """`audit_level` on integers: the weights caps / D, f_alpha of them as
    (numerator, denominator) and the counts over d.  One pass over the
    subsets sums every encoder's load, the total and the checks."""
    load = [0] * (len(caps) + 1)
    total, other_size, negative = 0, False, False
    for u, n in zip(subsets, counts):
        members = u.members
        if len(members) != alpha:
            other_size = True
        if n:
            total += n
            if n < 0:
                negative = True
            for l in members:
                load[l] += n
    failures = []
    if other_size:
        failures.append(f"level {alpha}: subset of another size")
    if negative:
        failures.append(f"level {alpha}: negative coefficient")
    for l, cap in enumerate(caps, 1):
        if load[l] * D > cap * d:
            failures.append(f"level {alpha}: capacity exceeded at encoder {l}")
    if total * f[1] != f[0] * d:
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
    lam, ns, d = _level_weights(weights, alpha)
    order = sorted(range(len(lam)), key=ns.__getitem__, reverse=True)
    ((s, k),) = _least_ratios([ns[l] for l in order], (alpha,))
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
    """(f_1, ..., f_L); nonincreasing, with f_1 equal to the weight sum:
    from one sort of the weights' numerators over one denominator d, each
    level's least ratio s / k of integer suffix sums, and one `Fraction`
    s / (k d) per level."""
    _, ns, d = _scaled(weights, "weights")
    ratios = _least_ratios(sorted(ns, reverse=True), range(1, len(ns) + 1))
    return tuple([Fraction(s, k * d) for s, k in ratios])


def min_sum_rate(entropies) -> Fraction:
    """Sum over levels of (L/alpha) times the level entropy."""
    h = _scaled(entropies, "entropies")[0]
    L = len(h)
    return sum((Fraction(L, a) * h[a - 1] for a in range(1, L + 1)), _ZERO)


def smdca_hyperplane(m: int, weights, entropies) -> Fraction:
    """Right-hand side of the m-th all-access supporting hyperplane:
    f_m(lam) times H_1 + ... + H_m, plus f_alpha(lam) H_alpha above m."""
    prof = f_profile(weights)
    h = _scaled(entropies, "entropies")[0]
    if len(h) != len(prof):
        raise ValueError("weights and entropies must have equal length")
    if not 1 <= m <= len(prof):
        raise ValueError(f"m must be in 1..{len(prof)}, got {m}")
    return prof[m - 1] * sum(h[:m], _ZERO) + sum((f * x for f, x in zip(prof[m:], h[m:])), _ZERO)


# membership ------------------------------------------------------------


# (L, top) -> `_chamber(L, top)`, one per ground size and secrecy threshold
_CHAMBERS: dict[tuple[int, int], tuple[list[tuple[int, ...]], list[tuple[int, ...]]]] = {}


def _chamber(L: int, top: int):
    """The rows of `_rate_split`'s LP over L encoders for the levels
    1..top, which depend on nothing else: column (alpha, j) for 1 <= j <
    alpha, level by level; the cap row of each level alpha >= 2, (alpha -
    j) at its columns, and the prefix row of each k, alpha (k - j)^+ - k
    (alpha - j) at column (alpha, j)."""
    rows = _CHAMBERS.get((L, top))
    if rows is None:
        cols = [(alpha, j) for alpha in range(2, top + 1) for j in range(1, alpha)]
        caps, start = [], 0
        for alpha in range(2, top + 1):
            row = [0] * len(cols)
            row[start : start + alpha - 1] = range(alpha - 1, 0, -1)
            caps.append(tuple(row))
            start += alpha - 1
        prefix = [tuple([a * max(k - j, 0) - k * (a - j) for a, j in cols])
                  for k in range(1, L + 1)]
        rows = _CHAMBERS[L, top] = caps, prefix
    return rows


def _rate_split(rates, entropies, levels):
    """Per-level rate split over the encoders sorted by rate, the rates and
    the entropies each given as (numerators, denominator).

    Two cases are decided in closed form, on the integer prefix sums R_k
    of the sorted rates and S_k = sum_{alpha <= k} H_alpha / alpha, with S
    = S_top.  Superposition coding puts H_alpha / alpha of each level on
    every encoder (Yeung-Zhang), so a rate vector whose lowest rate is at
    least S is a member with that split as its witness, built and
    re-checked by `_superposition` with one value per level.  Any k
    encoders hold k H_alpha / alpha of every level alpha <= k (the
    sum-rate converse, by Han's inequality), so R_k >= k S_min(k, top),
    and a rate vector that fails it is a non-member, separated by lambda =
    1 on its k lowest rates.  For k >= top that fails at k = top first:
    once R_top >= top S, the rate at top and every rate above it is at
    least S.  So k = top is tried first, then k = 1..top - 1: the order in
    which the dual phase meets these hyperplanes when the LP carries each
    as a row with no entries after its prefix rows, so each certificate is
    that LP's.  Only the rate vectors between the two go to `_lp_split`,
    where every such row would hold and so never be picked.

    Returns (witness, None) for a member, else (None, lam) with lam
    coprime integers and lam.r < sum_a f_a(lam) H_a.
    """
    (r, D), (hs, dh) = rates, entropies
    L, top = len(r), len(levels)
    # H_alpha / alpha over E = dh A, and S_k their prefix sums
    A = lcm(*levels)
    E = dh * A
    split = [h * (A // a) for a, h in zip(levels, hs)]
    S = list(accumulate(split))
    if min(r) * E >= S[-1] * D:
        return _superposition(split, E, rates, entropies, levels), None
    order = sorted(range(L), key=r.__getitem__)
    rank = sorted(range(L), key=order.__getitem__)  # encoder -> sorted position
    r = [r[l] for l in order]
    R = list(accumulate(r[:top]))
    for k in (top, *range(1, top)):
        if R[k - 1] * E < k * S[k - 1] * D:
            return None, tuple([int(p < k) for p in rank])
    return _lp_split((r, D), entropies, levels, rank)


def _superposition(split, E, rates, entropies, levels):
    """The superposition witness: each level's share split / E, H_alpha /
    alpha, on every encoder, one `Fraction` per level.  Re-checked exactly
    on those numerators: none is negative, alpha of them hold H_alpha (hs
    over dh), and their sum is within the lowest rate (of r over D)."""
    (r, D), (hs, dh) = rates, entropies
    for x, alpha, h in zip(split, levels, hs):
        if x < 0 or alpha * x * dh < h * E:
            raise AssertionError("witness misses a level demand")
    if sum(split) * D > min(r) * E:
        raise AssertionError("witness exceeds an encoder rate")
    L = len(r)
    return {alpha: (Fraction(x, E),) * L for x, alpha in zip(split, levels)}


def _lp_split(rates, entropies, levels, rank):
    """`_rate_split` by one LP, the rates sorted ascending and rank giving
    each encoder's position among them.

    With the rates ascending, a block (alpha, j) of height mu sits on the
    L - j highest-rate encoders, and any alpha encoders hold at least
    (alpha - j) mu of it.  The LP is written relative to the superposition
    split, which puts H_alpha / alpha of each level on every encoder: its
    columns are nu = mu / alpha for the blocks 1 <= j < alpha, and block 0
    takes what is left of the level's demand, H_alpha / alpha - sum_j
    (alpha - j) nu.  Rows: one cap row per level alpha >= 2, which keeps
    block 0 nonnegative, and one prefix row per k, whose slack is the sum
    of the k lowest rates less the blocks' load on those encoders, k S
    with S = sum_alpha H_alpha / alpha at nu = 0.  So the slack basis is
    the superposition split.

    Returns (witness, None) when the LP is feasible: the blocks'
    per-level loads, carried onto the rates by Robin Hood transfers, which
    keep every level's sum of its alpha smallest shares (none when no
    encoder is loaded past its rate).  Else (None, lam): with w the Farkas
    multipliers of the prefix rows, lam sorts as the suffix sums of w, so
    lam.r < sum_a f_a(lam) H_a, as coprime integers.
    """
    (r, D), (hs, dh) = rates, entropies
    L = len(r)
    caps, prefix = _chamber(L, len(levels))
    # S = sum of H_alpha / alpha, over dh A
    A = lcm(*levels)
    S = sum(h * (A // a) for a, h in zip(levels, hs))
    lp = LinearProgram(len(prefix[0]))
    for row, a, h in zip(caps, levels[1:], hs[1:]):
        lp.add_ints(row, LE, h, dh * a)
    for k, (row, R) in enumerate(zip(prefix, accumulate(r)), 1):
        lp.add_ints(row, LE, R * dh * A - k * S * D, D * dh * A)
    res = feasible(lp)
    ns, d = res.scaled
    if not res.feasible:
        w = [-n for n in ns[len(caps) :]]  # the prefix rows' multipliers
        lam = list(accumulate(reversed(w)))[::-1]
        if not lam[0] > 0:
            raise AssertionError("separating certificate cannot be identically zero")
        g = gcd(*lam)
        return None, tuple(lam[p] // g for p in rank)
    # the point, the rates and each level's H_alpha / alpha over one
    # denominator e; a level's shares are the prefix sums of its block
    # heights
    e = lcm(D, d, dh * A)
    r = [x * (e // D) for x in r]
    nu = iter([x * (e // d) for x in ns])
    D = e
    shares = []
    for alpha, h in zip(levels, hs):
        free = list(islice(nu, alpha - 1))
        head = h * e // (dh * alpha) - sum(map(mul, range(alpha - 1, 0, -1), free))
        x = list(accumulate([alpha * x for x in free], initial=head))
        shares.append(x + [x[-1]] * (L - alpha))
    load = list(map(sum, zip(*shares)))
    if any(map(gt, load, r)):
        # with the slack on the last entry, r is majorized by load
        load[-1] += sum(r) - sum(load)
    # move mass from the first entry above its rate to the last one below
    # it, the same fraction t = num / den in every level, after scaling
    # every vector and D by den
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
    return _witness(shares, r, D, levels, hs, dh, rank), None


def _witness(shares, r, D, levels, hs, dh, rank):
    """`_lp_split`'s witness: each level's shares on the sorted encoders,
    over D, as `Fraction`s per encoder, re-checked exactly, one pass per
    level: no share is negative, the alpha smallest hold H_alpha (hs over
    dh), and no encoder's load exceeds its rate r / D."""
    # a level's top shares repeat: one Fraction per distinct numerator
    made = {n: Fraction(n, D) for n in set().union(*shares)}
    witness = {}
    for x, alpha, h in zip(shares, levels, hs):
        if min(x) < 0 or sum(sorted(x)[:alpha]) * dh < h * D:
            raise AssertionError("witness misses a level demand")
        witness[alpha] = tuple([made[x[p]] for p in rank])
    if any(map(gt, map(sum, zip(*shares)), r)):
        raise AssertionError("witness exceeds an encoder rate")
    return witness


def _separates(w, cap: int, r0: int, rates, entropies, levels) -> bool:
    """cap r0 + w.r < sum_a min(f_a(w), cap) H_a for integer weights w and
    cap (sum(w) for none), with r0 and the rates as numerators over one
    denominator, (numerators, dr) = rates, and the entropies as (hn, dh):
    on integers, f_a(w) = s / k from one sort, and both sides times
    lcm(k), dr and dh."""
    ratios = _least_ratios(sorted(w, reverse=True), levels)
    K = lcm(*(k for _, k in ratios))
    (rn, dr), (hn, dh) = rates, entropies
    lhs = (cap * r0 + sum(x * y for x, y in zip(w, rn))) * dh * K
    return lhs < dr * sum(min(s * (K // k), cap * K) * n for (s, k), n in zip(ratios, hn))


def _member_inputs(rates, entropies, n_secure: int):
    """Validated rates, entropies and constraining levels of a query, the
    rates and the entropies as `_scaled` gives them: their `Fraction`s,
    and their numerators over one denominator."""
    r = _scaled(rates, "rates")
    L = len(r[0])
    if not 0 <= n_secure <= L - 1:
        raise ValueError(f"n_secure must be in 0..{L - 1}, got {n_secure}")
    h = _scaled(entropies, "entropies")
    if len(h[0]) != L - n_secure:
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
    residual in the plain region.  The greedy split runs on the
    entropies' numerators, as the query's validation gives them."""
    num, den = as_fraction(r0).as_integer_ratio()
    (_, rn, D), (h, hn, dh), levels = _member_inputs(rates, entropies, 0)
    if num < 0:
        raise ValueError("r0 must be nonnegative")
    q, left, residual, d = _greedy_split(num, den, hn, dh)
    split, lam = _rate_split((rn, D), (residual, d), levels)
    if split is not None:
        stored = _stored_at_zero(h, q, left, d)
        witness = {a: (stored[a - 1],) + split[a] for a in levels}
        return MembershipVerdict(member=True, witness=witness)
    # the residual's violated hyperplane lam.r < sum_a f_a(lam) h'_a is
    # g_m(lam) at the split level m, the all-access hyperplane at lambda0 =
    # f_m(lam) = s / k; times k, over max(s, k max(lam)) to reach at most 1
    m = q + 1
    ((s, k),) = _least_ratios(sorted(lam, reverse=True), (m,))
    w = [x * k for x in lam]
    # r0 and the rates over one denominator, for the hyperplane
    e = lcm(den, D)
    rates_e = ([x * (e // D) for x in rn], e)
    if not _separates(w, s, num * (e // den), rates_e, (hn, dh), levels):
        raise AssertionError("certificate must violate the all-access hyperplane")
    scale = max(s, k * max(lam))
    return MembershipVerdict(
        member=False, certificate=_shared_fractions(w, scale),
        certificate_lambda0=Fraction(s, scale), certificate_m=m,
    )


def ssmdc_member(rates, entropies, n_secure: int) -> MembershipVerdict:
    """Membership for the secure variant: only levels 1..L-N constrain."""
    (_, *rs), (_, *hs), levels = _member_inputs(rates, entropies, n_secure)
    witness, lam = _rate_split(rs, hs, levels)
    if witness is not None:
        return MembershipVerdict(member=True, witness=witness)
    if not _separates(lam, sum(lam), 0, rs, hs, levels):
        raise AssertionError("Farkas certificate must violate a supporting hyperplane")
    return MembershipVerdict(member=False, certificate=_shared_fractions(lam, max(lam)))


def _shared_fractions(ns, d) -> tuple[Fraction, ...]:
    """ns / d as `Fraction`s, one built per distinct numerator."""
    made = {n: Fraction(n, d) for n in set(ns)}
    return tuple([made[n] for n in ns])


# all-access greedy allocation -------------------------------------------


def greedy_allocation(r0, entropies) -> GreedyAllocation:
    """Commit the all-access budget to sources in priority order.

    Source alpha stores min(h_alpha, r0 - sum of h_beta, beta < alpha),
    clipped at zero: sources below the split level are stored whole, the
    split level (the first with a residual) gets the leftover budget,
    everything above stays with the randomly accessible encoders.  The
    budget and sources are compared as integer numerators over one
    denominator (`_greedy_split`), and only the split level builds new
    `Fraction`s.
    """
    num, den = as_fraction(r0).as_integer_ratio()
    if num < 0:
        raise ValueError("r0 must be nonnegative")
    h, hn, dh = _scaled(entropies, "entropies")
    q, left, residual, d = _greedy_split(num, den, hn, dh)
    stored = _stored_at_zero(h, q, left, d)
    if q == len(h):
        return GreedyAllocation(stored_at_zero=stored, residual=(_ZERO,) * q, level=None)
    return GreedyAllocation(
        stored_at_zero=stored,
        residual=(_ZERO,) * q + (Fraction(residual[q], d),) + h[q + 1 :],
        level=q + 1,
    )


def _greedy_split(num: int, den: int, hn, dh: int) -> tuple[int, int, list[int], int]:
    """The greedy split of the budget num / den >= 0 over the sources hn /
    dh, on integers over one denominator d: (q, left, residual, d), with
    the sources before q stored whole, left what remains of the budget
    (below source q, if any), and residual the numerators of what the
    randomly accessible encoders carry, zero before q and source q less
    left at q."""
    d = lcm(den, dh)
    left, residual = num * (d // den), [x * (d // dh) for x in hn]
    q = 0
    while q < len(residual) and residual[q] <= left:
        left -= residual[q]
        residual[q] = 0
        q += 1
    if q < len(residual):
        residual[q] -= left
    return q, left, residual, d


def _stored_at_zero(h, q: int, left: int, d: int) -> tuple[Fraction, ...]:
    """What the all-access encoder stores of the sources h after
    `_greedy_split` gave (q, left, _, d): h before q whole, left / d of
    source q, nothing above it."""
    if q == len(h):
        return h
    return h[:q] + (Fraction(left, d),) + (_ZERO,) * (len(h) - q - 1)
