"""Shannon entropy on small joint distributions, and numerical checks of
the subset entropy inequalities.

Marginalization is exact: a pmf keeps its masses once as integer counts
over one common denominator d, a marginal sums counts, and each mass
n / d becomes a float only as the correctly rounded value of that
rational.  Only the final logarithms are floating point, so every
inequality check carries a small absolute tolerance.  Checks return a
report rather than raising: a violated inequality is a result, not an
error.

A variable set is validated once into a bit mask (bit m for variable
m), and entropies are cached per mask.  A marginal is summed from a
cached marginal of a set one variable larger, which is built first when
it has fewer states than the joint has cells, and else from the joint.
Either way its cells come in the order of their first appearance in the
joint, so every entropy is summed in the same order and gives the same
bits.  The cached marginals total at most MARGINAL_BUDGET times the
joint's cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod
from operator import itemgetter
from typing import Iterable, Mapping

from .covers import CoefficientChain, ConditionalAssignment, verify_cover
from .exactlp import as_fraction, over_common_denominator
from .subsets import EncoderSet, subsets_of_size, windows

TOLERANCE = 1e-9
MAX_STATES = 10**7
RESOLUTION = 256
# the cached marginals hold at most this many times the joint's cells
MARGINAL_BUDGET = 4

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
            if p.numerator < 0:
                raise ValueError("probabilities must be nonnegative")
            if p:
                table[outcome] = table.get(outcome, _ZERO) + p
        counts, d = over_common_denominator(table.values())
        if sum(counts) != d:
            raise ValueError(f"probabilities sum to {Fraction(sum(counts), d)}, expected 1")
        self.alphabet_sizes = sizes
        # the masses, held once, as integers over one denominator in table
        # order, which fixes the order in which every entropy is summed
        self._counts = dict(zip(table, counts))
        self._denominator = d
        self._full = (2 << len(sizes)) - 2  # the mask of all L variables
        self._entropy_cache: dict[int, float] = {}
        # mask -> marginal counts, for sets of two or more variables
        self._marginals: dict[int, dict] = {}
        self._marginal_cells = 0

    @property
    def probabilities(self) -> dict[tuple[int, ...], Fraction]:
        """The nonzero masses as a new table of Fractions, built from the
        counts on each read."""
        d = self._denominator
        return {outcome: Fraction(n, d) for outcome, n in self._counts.items()}

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
        if not pts:
            raise ValueError("need at least one outcome")
        mass = Fraction(1, len(pts))
        table: dict[tuple[int, ...], Fraction] = {}
        for o in pts:
            o = tuple(o)
            table[o] = table.get(o, _ZERO) + mass
        return cls(alphabet_sizes, table)

    def _mask(self, u) -> int:
        """The bit mask of a variable set, bit m for variable m, once every
        index is checked to lie in 1..L; an EncoderSet brings its mask."""
        if isinstance(u, EncoderSet):
            if u.mask <= self._full:
                return u.mask
            u = u.members
        n = self.variable_count
        mask = 0
        for m in sorted(u):
            if not 1 <= m <= n:
                raise ValueError(f"variable index {m} out of range")
            mask |= 1 << m
        return mask

    def subset_entropy(self, u) -> float:
        """Base-2 entropy of the marginal on u (u nonempty)."""
        mask = self._mask(u)
        if not mask:
            raise ValueError("entropy of an empty variable set is not defined")
        return self._entropy(mask)

    def conditional_entropy(self, u, given) -> float:
        """H(X_u | X_given) = H(X_{u+given}) - H(X_given)."""
        mask = self._mask(u)
        cond = self._mask(given)
        if not mask:
            raise ValueError("entropy of an empty variable set is not defined")
        if not cond:
            return self._entropy(mask)
        return self._entropy(mask | cond) - self._entropy(cond)

    def _entropy(self, mask: int) -> float:
        h = self._entropy_cache.get(mask)
        if h is None:
            d = self._denominator
            h = 0.0
            for n in self._marginal(mask).values():
                fp = n / d  # int / int rounds correctly, as float(Fraction) does
                h -= fp * math.log2(fp)
            h = self._entropy_cache[mask] = max(h, 0.0)
        return h

    def _marginal(self, mask: int) -> dict:
        """Counts of the marginal on a validated nonempty mask, in order of
        first appearance in the joint.

        The counts are summed from the smallest cached marginal one
        variable larger.  Failing that, the marginal that adds the first
        missing variable is built the same way and used, if its state
        count is below the joint's cells and fits the budget; else the
        counts are summed from the joint.  Grouping a table that keeps the
        joint's order of first appearance keeps it too."""
        if mask == self._full:
            return self._counts
        if mask in self._marginals:
            return self._marginals[mask]
        L = self.variable_count
        cells = len(self._counts)
        source, drop = self._counts, 0
        missing = [j for j in range(1, L + 1) if not mask >> j & 1]
        for j in missing:
            larger = self._marginals.get(mask | 1 << j)
            if larger is not None and len(larger) < len(source):
                source, drop = larger, j
        if not drop:
            j = missing[0]
            larger = mask | 1 << j
            states = prod(k for m, k in enumerate(self.alphabet_sizes, 1) if larger >> m & 1)
            if states < cells and self._marginal_cells + states <= MARGINAL_BUDGET * cells:
                source, drop = self._marginal(larger), j
        size = mask.bit_count()
        if drop:
            # the dropped variable's position among the larger set's members
            pos = (mask & (1 << drop) - 1).bit_count()
            key = itemgetter(*(i for i in range(size + 1) if i != pos))
        else:
            key = itemgetter(*(m - 1 for m in range(1, L + 1) if mask >> m & 1))
        # one variable gives bare symbols as keys, which group alike
        counts: dict = {}
        for outcome, n in source.items():
            k = key(outcome)
            counts[k] = counts.get(k, 0) + n
        if size > 1 and self._marginal_cells + len(counts) <= MARGINAL_BUDGET * cells:
            self._marginals[mask] = counts
            self._marginal_cells += len(counts)
        return counts


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
            n, d = w.as_integer_ratio()
            if n:
                h = pmf.conditional_entropy(u, given) if given else pmf.subset_entropy(u)
                total += n / d * h  # n / d rounds correctly, as float(w) does
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


def _uniform(family, weight) -> list:
    """Terms weighing every set of a family alike, with one weight object."""
    return [(u, None, weight) for u in family]


def check_han(pmf: JointPMF, alpha: int) -> InequalityReport:
    """Normalized average subset entropy at level alpha-1 dominates level alpha."""
    L = _level_range(pmf, alpha)
    return _levels(pmf, "han", alpha, lambda a: _uniform(
        subsets_of_size(L, a), Fraction(1, comb(L, a) * a)
    ))


def check_sliding_window(pmf: JointPMF, alpha: int) -> InequalityReport:
    """Cyclic-window analogue of the level comparison."""
    L = _level_range(pmf, alpha)
    return _levels(pmf, "sliding-window", alpha, lambda a: _uniform(windows(L, a), Fraction(1, a)))


def check_mt(
    pmf: JointPMF, u: EncoderSet, weights: dict[EncoderSet, Fraction]
) -> InequalityReport:
    """Cover-weighted child entropies dominate the parent entropy; weights
    maps each child of u to its cover weight."""
    if not verify_cover(u, weights):
        raise ValueError("weights must be a verified fractional cover of u")
    lhs = [(v, None, w) for v, w in weights.items()]
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
    for outcome, p in sorted(pmf.probabilities.items()):
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
