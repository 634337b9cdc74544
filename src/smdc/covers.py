"""Coefficient chains linked by fractional covers.

A chain holds, for each subset level alpha, an optimal solution of the
per-level packing LP, and for each descent a family of fractional
covers that reproduces level alpha-1 from level alpha by weighted
parent sums.  A cover is a plain map, child -> weight, filed under its
parent: `covers[alpha][u][v]` is the weight of child v in the cover of
u, just as a chain file's `g alpha u v w` record says.  No LP is
solved: the descent starts from the one optimal top level, and each
step takes one of two rules, depending on how top-heavy the sorted
weight vector is: a dominant top weight recurses on the rest of the
ground set, and otherwise the uniform cover is shifted by the level's
deficits (all zero when the weights are balanced; the base case, two
encoders, is the shifted cover too).  A shifted cover gives the child
that drops a parent's tau-th element the same weight for every parent,
so a level's alpha weights are built once and shared by all its
parents.  The conditional variant attaches to each subset a family of
disjoint "adversary" sets of fixed size and pushes every parent's split
of its weight through the covers onto its children.

Both builders run on one integer core: each level, descent and split
level held as integer numerators over one denominator, every subset
keyed by a bit mask over the encoders' weight ranks, so that the
descent's families, in its order and with their children, are tables
that depend on L alone, built once (`_family`), as is the map from each
mask to its shared set (`_sets`); one relabeling of the 2^L masks per
chain names the sets.  The core is audited exactly, and a bad
construction raises `AssertionError` instead of returning: every level
as `region.audit_level` checks `f_alpha`'s packings, a cover at every
subset of positive weight on levels 2..L, every cover's children and
covering inequality, every descent's parent-sum identity, and the
split's sets and level totals.  Only then is it converted, once, to the
sets of the shared `subsets_of_size` families and one `Fraction` per
distinct numerator of a level or descent.  `verify_chain` and
`verify_conditional` put a given chain on the core once, keyed by the
sets' own masks, and run the same audits; a split, which carries no
covers, must also be the one `conditional_chain` builds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from ._record import Record
from .exactlp import as_fraction, as_fractions, over_common_denominator
from .region import SubsetCoefficients, _least_ratios, audit_counts
# re-exported: the benchmark tracer (perfbench/tracing.py) wraps covers.f_alpha
from .region import f_alpha  # noqa: F401
from .subsets import (
    MAX_CHAIN_GROUND,
    MAX_SHARED_FAMILY,
    EncoderSet,
    check_ground,
    format_subset,
    parse_subset,
    subsets_of_size,
)

CASE_BASE = "base"
CASE_1 = "case1"
CASE_2 = "case2"
CASE_3 = "case3"

_ZERO = Fraction(0)


def verify_cover(u: EncoderSet, weights: dict[EncoderSet, Fraction]) -> bool:
    """Exact check that child -> weight covers every element of parent u,
    each child u less one element."""
    if len(u.members) < 2:
        raise ValueError("children require a set of size at least 2")
    counts, d = over_common_denominator(weights.values())
    L, size, mask = u.ground_size, len(u.members) - 1, u.mask
    return all(
        v.ground_size == L and v.mask.bit_count() == size and not v.mask & ~mask for v in weights
    ) and _covers(tuple(counts), d, size)


def _covers(counts: tuple[int, ...], d: int, size: int) -> bool:
    """Weights counts / d cover each element of a parent of size + 1: the
    child without element i (if any) weighs at most the total less 1, so
    total - n >= d for every n, and total >= d if a child is missing."""
    total = sum(counts)
    return all(0 <= n <= total - d for n in counts) and (len(counts) > size or total >= d)


@dataclass
class CoefficientChain:
    """Optimal level weights for one weight vector, linked level to level by covers."""

    weights: tuple[Fraction, ...]
    levels: dict[int, SubsetCoefficients]
    # alpha -> parent -> child -> weight
    covers: dict[int, dict[EncoderSet, dict[EncoderSet, Fraction]]]
    case_events: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ground_size(self) -> int:
        return len(self.weights)


@dataclass
class ConditionalAssignment:
    """Per-level weights split across disjoint fixed-size adversary sets."""

    weights: tuple[Fraction, ...]
    n_secure: int
    # alpha -> subset -> adversary set -> weight
    split: dict[int, dict[EncoderSet, dict[EncoderSet, Fraction]]]

    @property
    def ground_size(self) -> int:
        return len(self.weights)


class ChainReport(Record):
    __slots__ = _fields = ("failures",)  # the one record left mutable, so unhashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, failures: list[str]) -> None:
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures


# the integer core --------------------------------------------------------

# (n, alpha) -> `_family(n, alpha)`, and L -> `_sets(L)`, built on first use
# and kept, as `subsets_of_size` keeps its families, while they hold at most
# MAX_SHARED_FAMILY subsets
_FAMILIES: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}
_SETS: dict[int, list] = {}


def _family(n: int, alpha: int) -> dict[int, tuple[int, ...]]:
    """mask -> its children, for the alpha-subsets of the bits 1..n in
    combinations order along n, n-1, .., 1, each dropping its members
    lowest bit first.  The core gives the encoder of weight rank r (0 the
    heaviest) bit L - r, so this is the descent's order along the encoders
    by nonincreasing weight, and the ground less its L - n heaviest
    encoders is the bits 1..n."""
    family = _FAMILIES.get((n, alpha))
    if family is None:
        family = {}
        # each child is a key of the family (n, alpha - 1); when that family
        # is kept and its masks pass 256, past the ints Python shares, the
        # child is that very int, not a copy of it
        below = {}
        if n >= 8 and 1 < alpha and comb(n, alpha - 1) <= MAX_SHARED_FAMILY:
            below = _family(n, alpha - 1)
        same = dict(zip(below, below)).__getitem__ if below else None
        for c in combinations([1 << i for i in range(n, 0, -1)], alpha):
            u = sum(c)
            children = [u ^ b for b in reversed(c)]
            family[u] = tuple(map(same, children) if same else children)
        if len(family) <= MAX_SHARED_FAMILY:
            _FAMILIES[n, alpha] = family
    return family


def _sets(L: int) -> list:
    """mask -> the shared `EncoderSet`, for every subset of {1..L}, as a
    list indexed by mask."""
    sets = _SETS.get(L)
    if sets is None:
        sets = [None] * (2 << L)
        sets[0] = EncoderSet((), L)
        for k in range(1, L + 1):
            for u in subsets_of_size(L, k):
                sets[u.mask] = u
        if 1 << L <= MAX_SHARED_FAMILY:
            _SETS[L] = sets
    return sets


def _descend(w, D, n, alpha, level, d, events):
    """Covers taking the optimal level alpha, mask -> numerator over d with
    a positive total, down to alpha-1 on the bits 1..n, bit i weighing
    w[i] / D: parent -> child -> numerator, and their one denominator."""
    top, rest = w[n], sum(w[1:n])
    if alpha >= 3 and top * (alpha - 2) > rest:
        events.append((alpha, CASE_2))
        return _case2(w, D, n, alpha, level, d, events)
    if n == 2:
        events.append((alpha, CASE_BASE))
    else:
        events.append((alpha, CASE_1 if top * (alpha - 1) <= rest else CASE_3))
    return _case3(w, D, n, alpha, level, d)


def _case2(w, D, n, alpha, level, d, events):
    """Top weight dominates: all mass sits on subsets containing the top
    element, so recurse on the remaining ground with level alpha-1; a
    parent without it takes the uniform cover, 1 / (alpha - 1) a child."""
    top = 1 << n
    sub_level = {}
    for u, c in level.items():
        if u & top:
            sub_level[u ^ top] = c
        elif c != 0:
            raise AssertionError(
                f"{CASE_2}: positive weight on mask {u:#b} missing the dominant element"
            )
    sub_covers, g = _descend(w, D, n - 1, alpha - 1, sub_level, d, events)
    G = lcm(g, alpha - 1)
    k, uniform = G // g, G // (alpha - 1)
    covers = {}
    for u, children in _family(n, alpha).items():
        if u & top:
            sub = sub_covers[u ^ top]
            covers[u] = {v: sub.get(v ^ top, 0) * k if v & top else 0 for v in children}
        else:
            covers[u] = dict.fromkeys(children, uniform)
    return covers, G


def _case3(w, D, n, alpha, level, d):
    """Start from the uniform cover scaled down by the element deficits
    and push the deficit differences onto the children that drop a
    low-weight element (none when the weights are balanced).  The child
    that drops a parent's tau-th element weighs base plus the deficit
    differences delta_2..delta_tau, whatever the parent, so the alpha
    weights are built once per level and shared: integers over D * f *
    (alpha - 1), f the level total over d, reduced by their gcd."""
    f = sum(level.values())
    if f <= 0:
        raise AssertionError(f"{CASE_3}: needs a positive level total")
    # b = lam - tilde over D * d, tilde[e] the level weight on the subsets
    # holding e, for the alpha heaviest bits n, n-1, ..
    b = [w[e] * d - sum(c for u, c in level.items() if u >> e & 1) * D
         for e in range(n, n - alpha, -1)]
    # base = (1 - beta / f) / (alpha - 1), beta = sum_{m<alpha} b_1 - b_m,
    # and delta_2 + ... + delta_tau = (b_1 - b_tau) / f telescopes; unit
    # is 1 over the denominator D * f
    unit = D * f
    head = unit - sum(b[0] - x for x in b[1 : alpha - 1])
    # children drop the parent's alpha-th element first
    weights = [head + (alpha - 1) * (b[0] - b[tau - 1]) for tau in range(alpha, 0, -1)]
    k = gcd(unit * (alpha - 1), *weights)
    weights = [x // k for x in weights]
    covers = {u: dict(zip(children, weights)) for u, children in _family(n, alpha).items()}
    return covers, unit * (alpha - 1) // k


def _reconstruct(covers, g, level, d, L, alpha):
    """Level alpha-1 as cover-weighted parent sums, over d * g reduced by
    the gcd; `level` may omit zero-weight subsets."""
    nxt = dict.fromkeys(_family(L, alpha - 1), 0)
    for u, c in level.items():
        if c:
            for v, n in covers[u].items():
                if n:
                    nxt[v] += n * c
    k = gcd(d * g, *nxt.values())
    if k != 1:
        nxt = {v: n // k for v, n in nxt.items()}
    return nxt, d * g // k


def _core(lam):
    """lam's chain as its core, keyed by rank masks: the encoder of rank r
    (0 the heaviest, ties by index) is bit L - r.  Returns levels 1..L,
    each its whole family in the descent's order, covers on the descents
    p..2 for p positive weights, the case events, and rank mask -> shared
    `EncoderSet`, from one relabeling of the 2^L masks.  Level p is the
    one subset of the p largest weights, weighted by the smallest of them;
    the levels above vanish."""
    L = len(lam)
    ns, D = over_common_denominator(lam)
    order = sorted(range(L), key=lambda e: -ns[e])  # a stable sort: ties by index
    w = [0, *[ns[e] for e in reversed(order)]]  # bit i weighs w[i] / D
    real = [0]  # rank mask m -> real mask, at m // 2
    for e in reversed(order):
        real += [x | 2 << e for x in real]
    shared = _sets(L)
    sets = [None] * (2 << L)
    sets[::2] = [shared[x] for x in real]
    p = sum(n > 0 for n in ns)
    events: list[tuple[int, str]] = []
    levels = {alpha: ({}, 1) for alpha in range(p + 1, L + 1)}
    covers = {}
    if p:
        levels[p] = {((1 << p) - 1) << (L - p + 1): w[L - p + 1]}, D
    for alpha in range(p, 1, -1):
        covers[alpha] = _descend(w, D, L, alpha, *levels[alpha], events)
        levels[alpha - 1] = _reconstruct(*covers[alpha], *levels[alpha], L, alpha)
    for alpha in range(max(p, 1), L + 1):  # absent subsets as zero, in lex order
        level, family = levels[alpha][0], _family(L, alpha)
        if len(level) < len(family):
            for u in sorted(family, key=lambda m: sets[m].members):
                level.setdefault(u, 0)
    return levels, covers, events, sets


def _is_family(keys, L: int, alpha: int) -> bool:
    """Exactly the alpha-subsets of {1..L}: as many distinct masks as the
    family, and the family's."""
    check_ground(L)  # past the cap, raise as enumerating would
    return len(keys) == comb(L, alpha) and keys == _family(L, alpha).keys()


def _audit(lam, levels, covers, sets) -> list[str]:
    """`verify_chain`'s checks on a core whose keys name the sets `sets`
    maps them to, on lam's numerators over one denominator, read once;
    the covering inequality once per distinct weight vector."""
    L = len(lam)
    if set(levels) != set(range(1, L + 1)):
        return ["levels must cover 1..L"]
    caps, D = over_common_denominator(lam)
    failures: list[str] = []
    ratios = None
    for alpha in range(1, L + 1):
        level, d = levels[alpha]
        if not _is_family(level.keys(), L, alpha):
            failures.append(f"level {alpha}: wrong subset family")
            continue
        # f_alpha = s / (k D)
        ratios = ratios or _least_ratios(sorted(caps, reverse=True), range(1, L + 1))
        s, k = ratios[alpha - 1]
        failures += audit_counts(caps, D, alpha, (s, k * D), map(sets.__getitem__, level),
                                 level.values(), d)
    one, d = levels[1]
    if not _is_family(one.keys(), L, 1) or any(
        n * D != caps[sets[u].members[0] - 1] * d for u, n in one.items()
    ):
        failures.append("level 1 must equal the weight vector")
    for alpha in range(2, L + 1):
        per_u = covers.get(alpha, ({},))[0]
        failures += [f"descent {alpha}: no cover at {sets[u]}"
                     for u, n in levels[alpha][0].items() if n > 0 and u not in per_u]
    for alpha, (per_u, g) in covers.items():
        if not 2 <= alpha <= L:
            failures.append(f"descent {alpha}: no such level")
            continue
        (up, du), (lo, dl) = levels[alpha], levels[alpha - 1]
        covering: dict[tuple, bool] = {}  # (numerators, size) -> inequality holds
        recon = dict.fromkeys(lo, 0)
        for u, gu in per_u.items():
            ns, size = tuple(gu.values()), u.bit_count() - 1
            ok = covering.get((ns, size))
            if ok is None:
                if size < 1:
                    raise ValueError("children require a set of size at least 2")
                ok = covering[ns, size] = _covers(ns, g, size)
            # each child v, u less one element, collects upper[u] * g_u(v) at
            # level alpha-1
            c, out = up.get(u, 0), ~u
            for v, n in gu.items():
                ok = ok and v.bit_count() == size and not v & out
                recon[v] = recon.get(v, 0) + c * n
            if not ok:
                failures.append(f"descent {alpha}: invalid cover at {sets[u]}")
        # recon[v] / (du * g) against lower[v], in lower's order
        dg = du * g
        if not (recon.keys() == lo.keys()
                and [r * dl for r in recon.values()] == [n * dg for n in lo.values()]):
            failures.append(f"descent {alpha}: parent-sum identity fails")
    return failures


def _check(failures: list[str], what: str) -> None:
    if failures:
        raise AssertionError(f"{what} fails its audit: " + "; ".join(failures))


def _public(per_u, d: int, sets) -> dict:
    """key -> key -> numerator over d as set -> set -> `Fraction`."""
    fr = _fractions(set().union(*map(dict.values, per_u.values())), d)
    return {sets[u]: {sets[v]: fr[n] for v, n in gu.items()} for u, gu in per_u.items()}


def _fractions(ns, d: int) -> dict[int, Fraction]:
    """n -> Fraction(n, d) for the distinct numerators ns, zero shared."""
    return {n: Fraction(n, d) if n else _ZERO for n in ns}


def _key(u: EncoderSet, L: int, sets: dict) -> int:
    """u's key, recorded in `sets`: its mask, and for a set over another
    ground a bit past the ground's too, so that it fails the audit."""
    k = u.mask if u.ground_size == L else u.mask | 1 << L + 1 + u.ground_size
    sets[k] = u
    return k


def _keyed(per_u, L: int, sets: dict):
    """The inverse of `_public`, over one denominator."""
    ns, d = over_common_denominator([w for gu in per_u.values() for w in gu.values()])
    it = iter(ns)
    return {_key(u, L, sets): {_key(v, L, sets): n for v, n in zip(gu, it)}
            for u, gu in per_u.items()}, d


# chain construction ------------------------------------------------------


def _chain_weights(weights) -> tuple[Fraction, ...]:
    """The weight vector of a chain, refused before anything is built."""
    lam = as_fractions(weights)
    if not lam or any(x.numerator < 0 for x in lam):
        raise ValueError("weights must be nonempty and nonnegative")
    check_ground(len(lam))
    if len(lam) > MAX_CHAIN_GROUND:
        raise ValueError(
            f"chains support at most L={MAX_CHAIN_GROUND} (about L * 2^(L-1) "
            f"cover entries), got {len(lam)}"
        )
    return lam


def yz_chain(weights) -> CoefficientChain:
    """Full chain of per-level optima linked by covers for one weight vector.

    With p positive weights the levels above p vanish and carry no covers;
    level p is the one subset of the p largest weights, weighted by the
    smallest of them, and the descent runs from there down to level 1.
    """
    lam = _chain_weights(weights)
    levels, covers, events, sets = _core(lam)
    _check(_audit(lam, levels, covers, sets), "chain")
    out = {}
    for alpha, (level, d) in levels.items():
        if alpha == 1:  # audited equal to the weights: their Fractions
            out[1] = SubsetCoefficients({sets[u]: lam[sets[u].members[0] - 1] for u in level})
            continue
        fr = _fractions(set(level.values()), d)
        out[alpha] = SubsetCoefficients({sets[u]: fr[n] for u, n in level.items()})
    return CoefficientChain(lam, out, {a: _public(*c, sets) for a, c in covers.items()}, events)


def han_chain(L: int) -> CoefficientChain:
    """The classical uniform chain: the chain of equal weights 1/L, whose
    level weights are 1/(alpha*C(L,alpha)) with uniform covers."""
    if L < 1:
        raise ValueError("need at least one encoder")
    return yz_chain((Fraction(1, L),) * L)


def verify_chain(chain: CoefficientChain) -> ChainReport:
    """Exact structural audit: per-level feasibility and optimality, level
    1 against the weights, a cover at every subset of positive weight on
    levels 2..L, each cover's children and inequality, and every descent's
    parent-sum identity, on the chain put on the core once."""
    L, sets = chain.ground_size, {}
    levels = {}
    for alpha, coeffs in chain.levels.items():
        ns, d = over_common_denominator(coeffs.assignment.values())
        levels[alpha] = {_key(u, L, sets): n for u, n in zip(coeffs.assignment, ns)}, d
    covers = {alpha: _keyed(per_u, L, sets) for alpha, per_u in chain.covers.items()}
    return ChainReport(_audit(chain.weights, levels, covers, sets))


# conditional chains ------------------------------------------------------


def conditional_chain(weights, n_secure: int) -> ConditionalAssignment:
    """Attach disjoint adversary sets of size n_secure to a chain.

    The top level alpha = L - n_secure pairs each subset with its
    complement; descents push weights through the same covers as the
    unconditional chain, whose core is built and audited but not returned.
    """
    lam = _chain_weights(weights)
    L = len(lam)
    if not 0 <= n_secure <= L - 1:
        raise ValueError(f"n_secure must be in 0..{L - 1}, got {n_secure}")
    levels, covers, _, sets = _core(lam)
    _check(_audit(lam, levels, covers, sets), "chain")
    split = _push(levels, covers, L, n_secure, sets)
    _check(_audit_split(lam, n_secure, split, sets), "conditional chain")
    return ConditionalAssignment(lam, n_secure, {a: _public(*s, sets) for a, s in split.items()})


def _push(levels, covers, L: int, n_secure: int, sets):
    """The split of every level from L - n_secure down to 1 on the core,
    alpha -> (subset -> adversary set -> numerator, denominator): a descent
    multiplies the denominator by its covers' one, a restart takes the
    fresh level's."""
    top = L - n_secure
    level, d = levels[top]
    full = (1 << L + 1) - 2
    split = {top: ({u: {full ^ u: c} for u, c in level.items()}, d)}
    for alpha in range(top, 1, -1):
        per_u, g = covers.get(alpha, (None, 1))
        restart = not per_u
        if restart:
            # a vanished level has no covers: push zeros to keep the keys,
            # the children in lex order, each parent dropping its last
            # member first
            bit = {sets[1 << i].members[0]: 1 << i for i in range(1, L + 1)}
            per_u = {u: dict.fromkeys([u ^ bit[m] for m in reversed(sets[u].members)], 0)
                     for u in split[alpha][0]}
        lower: dict[int, dict[int, int]] = {}
        d *= g
        for u, parts in split[alpha][0].items():
            for v, n in per_u[u].items():
                into = lower.setdefault(v, {})
                for a, s in parts.items():
                    into[a] = into.get(a, 0) + n * s
        if restart:
            # restart from the fresh optimum below, each subset's whole
            # weight on its smallest adversary set
            fresh, d = levels[alpha - 1]
            for v, into in lower.items():
                into[min(into, key=lambda a: sets[a].members)] = fresh[v]
        split[alpha - 1] = lower, d
    return split


def _audit_split(lam, N: int, split, sets) -> list[str]:
    """`verify_conditional`'s checks on a split's core whose keys name the
    sets `sets` maps them to."""
    L = len(lam)
    if not 0 <= N <= L - 1:
        return [f"n_secure must be in 0..{L - 1}"]
    if set(split) != set(range(1, L - N + 1)):
        return ["levels must cover 1..L-N"]
    caps, D = over_common_denominator(lam)
    failures: list[str] = []
    ratios = None
    for alpha in range(1, L - N + 1):
        per_u, d = split[alpha]
        if not _is_family(per_u.keys(), L, alpha):
            failures.append(f"level {alpha}: wrong subset family")
            continue
        for u, parts in per_u.items():
            for a, n in parts.items():
                if a.bit_count() != N:
                    failures.append(f"level {alpha}: adversary size != {N} at {sets[u]}")
                if a & u:
                    failures.append(f"level {alpha}: adversary overlaps {sets[u]}")
                if n < 0:
                    failures.append(f"level {alpha}: negative split weight at {sets[u]}")
        ratios = ratios or _least_ratios(sorted(caps, reverse=True), range(1, L - N + 1))
        s, k = ratios[alpha - 1]
        totals = [sum(parts.values()) for parts in per_u.values()]
        failures += audit_counts(caps, D, alpha, (s, k * D), map(sets.__getitem__, per_u),
                                 totals, d)
    return failures


def verify_conditional(assignment: ConditionalAssignment) -> ChainReport:
    """Each level's family and its adversary sets, and the subsets' totals
    audited as a level, on the split put on the core once.  A split
    carries no covers, and level totals alone pass splits that no chain
    descends to, so once its levels pass, the split must be the one
    `conditional_chain` builds for its weights and N, records of weight
    zero aside."""
    L, sets = assignment.ground_size, {}
    split = {alpha: _keyed(per_u, L, sets) for alpha, per_u in assignment.split.items()}
    failures = _audit_split(assignment.weights, assignment.n_secure, split, sets)
    if failures:
        return ChainReport(failures)
    if L > MAX_CHAIN_GROUND:
        return ChainReport([f"descent: chains support at most L={MAX_CHAIN_GROUND}, got {L}"])
    built = conditional_chain(assignment.weights, assignment.n_secure).split
    return ChainReport([
        f"descent {alpha}: adversary split at {u} is not the chain's"
        for alpha in sorted(assignment.split, reverse=True)
        for u, parts in assignment.split[alpha].items()
        if _positive(parts) != _positive(built[alpha][u])
    ])


def _positive(parts: dict) -> dict:
    return {a: s for a, s in parts.items() if s}


# line-oriented serialization ---------------------------------------------

_CHAIN_HEADER = "smdc-chain 1"
_COND_KIND = "smdc-cond-chain"
_COND_HEADER = f"{_COND_KIND} 1"


def _lines(text: str) -> list[str]:
    """The stripped nonblank lines of a chain file."""
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def _read(text: str, header: str, kind: str, head: tuple[str, ...], arity: dict[str, int]):
    """One chain file: its lambda vector, the lines after it that start
    with the `head` keywords, in turn, and tag -> alpha -> subset -> ... ->
    value for the records, each tag keyed by `arity[tag]` subsets.  A
    second record for the same keys is refused."""
    lines = _lines(text)
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    if len(lines) < 2 or not lines[1].startswith("lambda "):
        raise ValueError("expected a lambda line")
    lam = as_fractions(lines[1].split()[1:])
    for i, word in enumerate(head, 2):
        if len(lines) <= i or not lines[i].startswith(word + " "):
            raise ValueError(f"expected an {word} line")
    start = 2 + len(head)
    records: dict[str, dict] = {tag: {} for tag in arity}
    for ln in lines[start:]:
        parts = ln.split()
        k = arity.get(parts[0])
        if k is None or len(parts) != k + 3:
            raise ValueError(f"unrecognized {kind} line: {ln!r}")
        into = records[parts[0]].setdefault(int(parts[1]), {})
        *outer, key = (parse_subset(p, len(lam)) for p in parts[2:-1])
        for u in outer:
            into = into.setdefault(u, {})
        value = as_fraction(parts[-1])
        if key in into:
            raise ValueError(f"duplicate {parts[0]} record: {ln!r}")
        into[key] = value
    return lam, lines[2:start], records


def _write(header: str, lam, head: tuple[str, ...], records: dict[str, dict]) -> str:
    """The inverse of `_read`: the header, the lambda vector, the `head`
    lines, then one line per value of tag -> alpha -> subset -> ... ->
    value, keys in ascending order."""
    lines = [header, "lambda " + " ".join(str(x) for x in lam), *head]

    def put(words: list[str], node) -> None:
        if not isinstance(node, dict):
            lines.append(" ".join(words + [str(node)]))
            return
        for u in sorted(node, key=lambda s: s.members):
            put(words + [format_subset(u)], node[u])

    for tag, per_alpha in records.items():
        for alpha in sorted(per_alpha):
            put([tag, str(alpha)], per_alpha[alpha])
    return "\n".join(lines) + "\n"


def chain_to_text(chain: CoefficientChain) -> str:
    return _write(_CHAIN_HEADER, chain.weights, (), {
        "c": {alpha: level.assignment for alpha, level in chain.levels.items()},
        "g": chain.covers,
    })


def chain_from_text(text: str) -> CoefficientChain:
    lam, _, records = _read(text, _CHAIN_HEADER, "chain", (), {"c": 1, "g": 2})
    levels = {alpha: SubsetCoefficients(c) for alpha, c in records["c"].items()}
    return CoefficientChain(lam, levels, records["g"])


def conditional_to_text(assignment: ConditionalAssignment) -> str:
    return _write(
        _COND_HEADER, assignment.weights, (f"n {assignment.n_secure}",),
        {"s": assignment.split},
    )


def conditional_from_text(text: str) -> ConditionalAssignment:
    lam, (n_line,), records = _read(text, _COND_HEADER, "conditional", ("n",), {"s": 2})
    n_secure = int(n_line.split()[1])
    return ConditionalAssignment(weights=lam, n_secure=n_secure, split=records["s"])


def verify_text(text: str) -> ChainReport:
    """Read and audit a chain file of either kind, told apart by its header,
    the first nonblank line."""
    if not next(iter(_lines(text)), "").startswith(_COND_KIND):
        return verify_chain(chain_from_text(text))
    return verify_conditional(conditional_from_text(text))
