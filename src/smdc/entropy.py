"""Shannon entropy on small joint distributions, and numerical checks of
the subset entropy inequalities.

Marginalization is exact: a pmf keeps its masses once as integer counts
over one common denominator d, a marginal sums counts, and each mass
n / d becomes a float only as the correctly rounded value of that
rational.  Only the final logarithms are floating point, so every
inequality check carries a small absolute tolerance.  Checks return a
report rather than raising: a violated inequality is a result, not an
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial
from operator import itemgetter
from typing import Iterable, Mapping

from .covers import CoefficientChain, ConditionalAssignment, FractionalCover, verify_cover
from .exactlp import as_fraction, over_common_denominator
from .subsets import EncoderSet, subsets_of_size, windows

TOLERANCE = 1e-9
MAX_STATES = 10**7
RESOLUTION = 256

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _state_space(alphabet_sizes) -> tuple[int, ...]:
    """The alphabet sizes, checked to be positive and to span at most
    MAX_STATES outcomes; called before any outcome table is built."""
    sizes = tuple(map(int, alphabet_sizes))
    if not sizes or min(sizes) < 1:
        raise ValueError("alphabet sizes must be positive")
    states = 1
    for k in sizes:
        # stop at the cap: the full product can have thousands of digits
        states *= k
        if states > MAX_STATES:
            raise ValueError(f"state space exceeds {MAX_STATES} outcomes")
    return sizes


class JointPMF:
    """A joint distribution of L finite-alphabet variables.

    probabilities maps outcome tuples (0-based symbols) to rational
    masses that sum to exactly one; omitted outcomes have mass zero.
    """

    def __init__(self, alphabet_sizes: Iterable[int], probabilities: Mapping):
        sizes = _state_space(alphabet_sizes)
        table: dict[tuple[int, ...], Fraction] = {}
        for outcome, p in probabilities.items():
            outcome = tuple(int(s) for s in outcome)
            if len(outcome) != len(sizes):
                raise ValueError(f"outcome {outcome} has wrong arity")
            for s, k in zip(outcome, sizes):
                if not 0 <= s < k:
                    raise ValueError(f"symbol {s} outside alphabet of size {k}")
            p = as_fraction(p)
            if p < 0:
                raise ValueError("probabilities must be nonnegative")
            if p:
                table[outcome] = table.get(outcome, _ZERO) + p
        counts, d = over_common_denominator(table.values())
        if sum(counts) != d:
            raise ValueError(f"probabilities sum to {Fraction(sum(counts), d)}, expected 1")
        self.alphabet_sizes = sizes
        self.probabilities = table
        # the masses as integers over one denominator, in table order,
        # which fixes the order in which every entropy is summed
        self._counts = dict(zip(table, counts))
        self._denominator = d
        self._entropy_cache: dict[int, float] = {}

    @property
    def variable_count(self) -> int:
        return len(self.alphabet_sizes)

    @classmethod
    def independent(cls, marginals) -> "JointPMF":
        """Product distribution from per-variable marginals."""
        margs = [[as_fraction(p) for p in m] for m in marginals]
        sizes = _state_space(len(m) for m in margs)
        table = {}
        for outcome in product(*(range(k) for k in sizes)):
            p = _ONE
            for s, m in zip(outcome, margs):
                p *= m[s]
            if p:
                table[outcome] = p
        return cls(sizes, table)

    @classmethod
    def uniform_over(cls, alphabet_sizes, outcomes) -> "JointPMF":
        pts = list(outcomes)
        mass = Fraction(1, len(pts))
        table: dict[tuple[int, ...], Fraction] = {}
        for o in pts:
            o = tuple(o)
            table[o] = table.get(o, _ZERO) + mass
        return cls(alphabet_sizes, table)

    def _members(self, u) -> tuple[int, ...]:
        members = tuple(u.members) if isinstance(u, EncoderSet) else tuple(sorted(u))
        for m in members:
            if not 1 <= m <= self.variable_count:
                raise ValueError(f"variable index {m} out of range")
        return members

    def subset_entropy(self, u) -> float:
        """Base-2 entropy of the marginal on u (u nonempty).  The cache is
        keyed by the mask with bit m set for each member m, which an
        EncoderSet carries already, so a cached EncoderSet is answered
        before its members are validated: only a validated set is ever
        cached."""
        if isinstance(u, EncoderSet):
            cached = self._entropy_cache.get(u.mask)
            if cached is not None:
                return cached
        members = self._members(u)
        if not members:
            raise ValueError("entropy of an empty variable set is not defined")
        mask = 0
        for m in members:
            mask |= 1 << m
        cached = self._entropy_cache.get(mask)
        if cached is not None:
            return cached
        # one member gives bare symbols as keys, which group alike
        key = itemgetter(*(m - 1 for m in members))
        counts: dict = {}
        for outcome, n in self._counts.items():
            k = key(outcome)
            counts[k] = counts.get(k, 0) + n
        d = self._denominator
        h = 0.0
        for n in counts.values():
            fp = n / d  # int / int rounds correctly, as float(Fraction) does
            h -= fp * math.log2(fp)
        h = max(h, 0.0)
        self._entropy_cache[mask] = h
        return h

    def conditional_entropy(self, u, given) -> float:
        """H(X_u | X_given) = H(X_{u+given}) - H(X_given)."""
        members = self._members(u)
        cond = self._members(given)
        if not members:
            raise ValueError("entropy of an empty variable set is not defined")
        if not cond:
            return self.subset_entropy(members)
        # a conditioning EncoderSet goes on as itself, to hit the cache by mask
        given = given if isinstance(given, EncoderSet) else cond
        return self.subset_entropy(set(members) | set(cond)) - self.subset_entropy(given)


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    details: dict

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.slack >= -TOLERANCE


def _compare(pmf: JointPMF, name: str, lhs, rhs, details: dict) -> InequalityReport:
    """lhs >= rhs, each side a list of (subset, conditioning set, exact
    weight) terms summed as weight * H(subset | conditioning set); terms
    without a conditioning set read the subset entropy directly."""

    def side(terms):
        total = 0.0
        for u, given, w in terms:
            if w:
                h = pmf.conditional_entropy(u, given) if given else pmf.subset_entropy(u)
                total += float(w) * h
        return total

    return InequalityReport(name, side(lhs), side(rhs), details)


def _levels(pmf: JointPMF, name: str, alpha: int, terms) -> InequalityReport:
    """Level alpha-1 against level alpha, terms(a) listing level a."""
    return _compare(pmf, name, terms(alpha - 1), terms(alpha), {"alpha": alpha})


def _level_range(pmf: JointPMF, alpha: int) -> int:
    L = pmf.variable_count
    if not 2 <= alpha <= L:
        raise ValueError(f"alpha must be in 2..{L}, got {alpha}")
    return L


def check_han(pmf: JointPMF, alpha: int) -> InequalityReport:
    """Normalized average subset entropy at level alpha-1 dominates level alpha."""
    L = _level_range(pmf, alpha)
    return _levels(pmf, "han", alpha, lambda a: [
        (u, None, Fraction(1, comb(L, a) * a)) for u in subsets_of_size(L, a)
    ])


def check_sliding_window(pmf: JointPMF, alpha: int) -> InequalityReport:
    """Cyclic-window analogue of the level comparison."""
    L = _level_range(pmf, alpha)
    return _levels(pmf, "sliding-window", alpha, lambda a: [
        (w, None, Fraction(1, a)) for w in windows(L, a)
    ])


def check_mt(pmf: JointPMF, u: EncoderSet, cover: FractionalCover) -> InequalityReport:
    """Cover-weighted child entropies dominate the parent entropy."""
    if cover.parent != u or not verify_cover(cover):
        raise ValueError("cover must be a verified fractional cover of u")
    lhs = [(v, None, w) for v, w in cover.weights.items()]
    return _compare(pmf, "madiman-tetali", lhs, [(u, None, _ONE)], {"parent": str(u)})


def check_yz(pmf: JointPMF, chain: CoefficientChain, alpha: int) -> InequalityReport:
    """Chain-weighted subset entropies at level alpha-1 dominate level alpha:
    the conditional check with no conditioning sets."""
    L = _level_range(pmf, alpha)
    if chain.ground_size != L:
        raise ValueError("chain ground size must match the pmf")
    return _levels(pmf, "yeung-zhang", alpha, lambda a: [
        (u, None, c) for u, c in chain.levels[a].assignment.items()
    ])


def check_conditional_yz(
    pmf: JointPMF, assignment: ConditionalAssignment, alpha: int
) -> InequalityReport:
    """Conditional variant: weights are split across adversary sets and each
    term conditions on its set."""
    L = pmf.variable_count
    if assignment.ground_size != L:
        raise ValueError("assignment ground size must match the pmf")
    top = L - assignment.n_secure
    if not 2 <= alpha <= top:
        raise ValueError(f"alpha must be in 2..{top}, got {alpha}")
    return _levels(pmf, "conditional-yz", alpha, lambda a: [
        (u, adv, s) for u, parts in assignment.split[a].items() for adv, s in parts.items()
    ])


def permutation_identity(L: int, alpha: int) -> bool:
    """Relabeling the cyclic windows over all permutations covers every
    size-alpha subset equally often, L*alpha!*(L-alpha)! times."""
    if not 1 <= alpha <= L <= 7:
        raise ValueError("requires 1 <= alpha <= L <= 7")
    counts: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(1, L + 1)):
        # perm maps position -> label; windows act on positions
        inverse = {pos: label for pos, label in zip(range(1, L + 1), perm)}
        for start in range(1, L + 1):
            labels = tuple(
                sorted(inverse[(start + i - 1) % L + 1] for i in range(alpha))
            )
            counts[labels] = counts.get(labels, 0) + 1
    expected = L * factorial(alpha) * factorial(L - alpha)
    families = {u.members for u in subsets_of_size(L, alpha)}
    return set(counts) == families and all(c == expected for c in counts.values())


# random distributions -----------------------------------------------------


def random_pmf(rng, alphabet_sizes) -> JointPMF:
    """Rational random pmf on a grid of RESOLUTION steps, reproducible
    from the supplied rng."""
    sizes = _state_space(alphabet_sizes)
    while True:
        cells = {
            outcome: rng.randrange(RESOLUTION + 1)
            for outcome in product(*(range(k) for k in sizes))
        }
        total = sum(cells.values())
        if total:
            break
    table = {o: Fraction(w, total) for o, w in cells.items() if w}
    return JointPMF(sizes, table)


def random_product_pmf(rng, alphabet_sizes) -> JointPMF:
    marginals = []
    for k in _state_space(alphabet_sizes):
        while True:
            weights = [rng.randrange(RESOLUTION + 1) for _ in range(k)]
            total = sum(weights)
            if total:
                break
        marginals.append([Fraction(w, total) for w in weights])
    return JointPMF.independent(marginals)


# text format ---------------------------------------------------------------


def pmf_to_text(pmf: JointPMF) -> str:
    lines = [
        f"{pmf.variable_count} " + " ".join(str(k) for k in pmf.alphabet_sizes)
    ]
    for outcome in sorted(pmf.probabilities):
        p = pmf.probabilities[outcome]
        lines.append(" ".join(str(s) for s in outcome) + f" {p}")
    return "\n".join(lines) + "\n"


def pmf_from_text(text: str) -> JointPMF:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty pmf file")
    header = lines[0].split()
    L = int(header[0])
    sizes = [int(x) for x in header[1:]]
    if len(sizes) != L:
        raise ValueError("header must list one alphabet size per variable")
    table: dict[tuple[int, ...], Fraction] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != L + 1:
            raise ValueError(f"malformed pmf line: {ln!r}")
        outcome = tuple(int(x) for x in parts[:L])
        if outcome in table:
            raise ValueError(f"duplicate outcome {outcome}")
        table[outcome] = as_fraction(parts[L])
    return JointPMF(sizes, table)
