"""Rate regions for multilevel diversity coding.

The region of each scheme is cut out by supporting hyperplanes whose
level coefficients f_alpha have a closed form (`f_value`); the packing
LP behind them (`f_alpha`) is solved only where an explicit subset
assignment is wanted, and its optimum is checked against the closed
form.  Membership is one exact primal feasibility system shared by the
three schemes.  Non-members come back with a separating weight vector
extracted from the Farkas certificate; members come back with an
explicit per-level rate allocation.  All arithmetic is rational, no
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlp import GE, LE, LinearProgram, as_fraction, as_fractions, feasible, solve_max
from .subsets import EncoderSet, subsets_of_size

MAX_MEMBERSHIP_GROUND = 12

_ZERO = Fraction(0)


def _nonnegative(values, what: str) -> tuple[Fraction, ...]:
    v = as_fractions(values)
    if not v:
        raise ValueError(f"{what} must be nonempty")
    if any(x < 0 for x in v):
        raise ValueError(f"{what} must be nonnegative")
    return v


def _dot(xs, ys) -> Fraction:
    return sum((a * b for a, b in zip(xs, ys)), _ZERO)


@dataclass(frozen=True)
class SubsetCoefficients:
    """Optimal weights on the size-`level` subsets for one weight vector."""

    level: int
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


def f_value(weights, alpha: int) -> Fraction:
    """The level-alpha coefficient in closed form: with the weights sorted
    nonincreasing, the minimum over j < alpha of the sum of all but the j
    largest weights divided by alpha - j."""
    lam = sorted(_level_weights(weights, alpha), reverse=True)
    return min(sum(lam[j:], _ZERO) / (alpha - j) for j in range(alpha))


def f_alpha(weights, alpha: int) -> SubsetCoefficients:
    """Optimal subset weights at one level: maximize the total weight put on
    size-alpha subsets subject to per-encoder capacities.  The LP optimum
    is checked against `f_value`."""
    lam = _level_weights(weights, alpha)
    L = len(lam)
    family = subsets_of_size(L, alpha)
    lp = LinearProgram(len(family), [1] * len(family))
    for l in range(1, L + 1):
        lp.add([1 if l in u else 0 for u in family], LE, lam[l - 1])
    sol = solve_max(lp)
    if sol.status != "optimal":
        raise AssertionError(f"packing LP ended {sol.status}")
    if sol.value != f_value(lam, alpha):
        raise AssertionError("packing LP optimum differs from the closed form")
    return SubsetCoefficients(level=alpha, assignment=dict(zip(family, sol.primal)))


def f_profile(weights) -> tuple[Fraction, ...]:
    """(f_1, ..., f_L); nonincreasing, with f_1 equal to the weight sum."""
    lam = _nonnegative(weights, "weights")
    return tuple(f_value(lam, a) for a in range(1, len(lam) + 1))


def min_sum_rate(entropies) -> Fraction:
    """Sum over levels of (L/alpha) times the level entropy."""
    h = _nonnegative(entropies, "entropies")
    L = len(h)
    return sum((Fraction(L, a) * h[a - 1] for a in range(1, L + 1)), _ZERO)


def smdca_f(lambda0, weights, alpha: int) -> Fraction:
    """Hyperplane coefficient with an all-access encoder of weight lambda0."""
    l0 = as_fraction(lambda0)
    if l0 < 0:
        raise ValueError("lambda0 must be nonnegative")
    return min(f_value(weights, alpha), l0)


def smdca_hyperplane(m: int, weights, entropies) -> Fraction:
    """Right-hand side of the m-th all-access supporting hyperplane."""
    return g_m(m, weights, entropies, 0)


# membership ------------------------------------------------------------


def _rate_split(rates, entropies, levels):
    """Feasibility LP for a per-level rate split.

    Variables are r[level][encoder].  Returns (witness, None) when a split
    exists, else (None, multipliers): the Farkas multipliers of the
    capacity rows scaled to a maximum of 1.
    """
    L = len(rates)
    nvars = len(levels) * L
    lp = LinearProgram(nvars)
    for ai, alpha in enumerate(levels):
        for u in subsets_of_size(L, alpha):
            coeffs = [0] * nvars
            for l in u:
                coeffs[ai * L + l - 1] = 1
            lp.add(coeffs, GE, entropies[ai])
    first_cap = lp.num_rows
    for l, cap in enumerate(rates):
        coeffs = [0] * nvars
        coeffs[l::L] = [1] * len(levels)
        lp.add(coeffs, LE, cap)
    res = feasible(lp)
    if res.feasible:
        point = res.point
        return {
            alpha: tuple(point[ai * L : (ai + 1) * L])
            for ai, alpha in enumerate(levels)
        }, None
    mults = [-y for y in res.certificate[first_cap:]]
    top = max(mults)
    if not top > 0:
        raise AssertionError("separating certificate cannot be identically zero")
    return None, tuple(y / top for y in mults)


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
    rhs = _dot((min(f_value(lam, a), lam0) for a in levels), h)
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
    if not _dot(lam, r) < _dot((f_value(lam, a) for a in levels), h):
        raise AssertionError("Farkas certificate must violate a supporting hyperplane")
    return MembershipVerdict(member=False, certificate=lam)


# all-access greedy allocation -------------------------------------------


def greedy_allocation(r0, entropies) -> GreedyAllocation:
    """Commit the all-access budget to sources in priority order.

    Sources below the split level are stored whole, the split level gets
    the leftover budget, everything above stays with the randomly
    accessible encoders.
    """
    r0 = as_fraction(r0)
    if r0 < 0:
        raise ValueError("r0 must be nonnegative")
    h = _nonnegative(entropies, "entropies")
    L = len(h)
    total = sum(h, _ZERO)
    if r0 >= total:
        return GreedyAllocation(stored_at_zero=h, residual=(_ZERO,) * L, level=None)
    cum = _ZERO
    for q in range(1, L + 1):
        if r0 < cum + h[q - 1]:
            stored = list(h[: q - 1]) + [r0 - cum] + [_ZERO] * (L - q)
            residual = (
                [_ZERO] * (q - 1) + [cum + h[q - 1] - r0] + list(h[q:])
            )
            return GreedyAllocation(
                stored_at_zero=tuple(stored), residual=tuple(residual), level=q
            )
        cum += h[q - 1]
    raise AssertionError("unreachable: r0 < total implies a split level exists")


def residual_hyperplane(profile, entropies, m: int, r0) -> Fraction:
    """g_m from a precomputed coefficient profile: the hyperplane of the
    residual region after storing the first m sources (less the budget)."""
    h = entropies
    L = len(profile)
    head = sum(h[:m], _ZERO) - r0
    tail = sum((profile[a - 1] * h[a - 1] for a in range(m + 1, L + 1)), _ZERO)
    return profile[m - 1] * head + tail


def g_m(m: int, weights, entropies, r0) -> Fraction:
    """Residual-region hyperplane value after storing the first m sources
    (less the budget) at the all-access encoder."""
    lam = _nonnegative(weights, "weights")
    h = _nonnegative(entropies, "entropies")
    L = len(lam)
    if len(h) != L:
        raise ValueError("weights and entropies must have equal length")
    if not 1 <= m <= L:
        raise ValueError(f"m must be in 1..{L}, got {m}")
    return residual_hyperplane(f_profile(lam), h, m, as_fraction(r0))


def greedy_matches_region(weights, entropies, r0) -> bool:
    """The greedy split level attains the max over all residual hyperplanes."""
    lam = _nonnegative(weights, "weights")
    h = _nonnegative(entropies, "entropies")
    L = len(lam)
    r0 = as_fraction(r0)
    alloc = greedy_allocation(r0, h)
    q = alloc.level if alloc.level is not None else L
    prof = f_profile(lam)
    values = [residual_hyperplane(prof, h, m, r0) for m in range(1, L + 1)]
    return max(values) == values[q - 1]
