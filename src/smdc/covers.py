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
parents.  The descent runs on integer numerators and keys every subset
by its bit mask, as `EncoderSet.mask` does; the finished chain takes its
sets from the shared `subsets_of_size` families.  It is audited exactly
(every level as `region.audit_level` checks `f_alpha`'s packings, a
cover at every subset of positive weight on levels 2..L, every cover's
children and covering inequality, every descent's parent-sum identity),
so a bad construction raises `AssertionError` instead of propagating.

The conditional variant additionally attaches to each subset a family
of disjoint "adversary" sets of fixed size and splits the level weights
across them.  Each descent pushes every parent's split through the
chain's covers onto its children, so each child collects the adversary
sets of all its parents.  The push and both audits run on bit masks and
on integer numerators, each level or descent put over one denominator
once, with one `Fraction` per entry the push returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from ._record import Record
from .exactlp import as_fraction, as_fractions, over_common_denominator
from .region import SubsetCoefficients, audit_counts, f_profile
# re-exported: the benchmark tracer (perfbench/tracing.py) wraps covers.f_alpha
from .region import f_alpha  # noqa: F401
from .subsets import (
    MAX_CHAIN_GROUND,
    EncoderSet,
    check_ground,
    format_subset,
    parse_subset,
    subsets_of_size,
)

_ZERO = Fraction(0)

CASE_BASE = "base"
CASE_1 = "case1"
CASE_2 = "case2"
CASE_3 = "case3"


def verify_cover(u: EncoderSet, weights: dict[EncoderSet, Fraction]) -> bool:
    """Exact check that child -> weight covers every element of parent u."""
    counts, d = over_common_denominator(weights.values())
    return _children_fit(u, weights) and _covers(tuple(counts), d, len(u) - 1)


def _children_fit(u: EncoderSet, children) -> bool:
    """Each child is u less one element."""
    if len(u.members) < 2:
        raise ValueError("children require a set of size at least 2")
    L, size, mask = u.ground_size, len(u.members) - 1, u.mask
    return all(v.ground_size == L and v.mask.bit_count() == size and not v.mask & ~mask
               for v in children)


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


# mask-keyed construction --------------------------------------------------
#
# The descent keys every subset by its bit mask over the caller's encoder
# indices, bit e for encoder e.  `ground` lists the encoders by
# nonincreasing weight, ties broken by index, so the top element and a
# parent's tau-th element are read along it.  A family comes in
# combinations order along the ground, and a parent's children drop its
# members in reverse ground order.  At the chain boundary each mask is
# looked up in the shared families.


def _masks(ground, size):
    """The size-subsets of `ground` as masks, in combinations order."""
    return [sum(c) for c in combinations([1 << e for e in ground], size)]


def _children(u, ground):
    """The children of mask u, dropping its members in reverse ground order."""
    return [u ^ 1 << e for e in reversed(ground) if u >> e & 1]


def _descend(lam, ns, ground, alpha, level, events):
    """Covers taking the given optimal level alpha down to alpha-1.

    lam: encoder -> weight (nonincreasing along ground), and ns: encoder ->
    its numerator over one denominator; level: mask -> weight, with
    positive total.  Returns parent mask -> child mask -> weight.
    """
    top, rest = ns[ground[0]], sum(ns[e] for e in ground[1:])
    if alpha >= 3 and top * (alpha - 2) > rest:
        events.append((alpha, CASE_2))
        return _case2(lam, ns, ground, alpha, level, events)
    if len(ground) == 2:
        events.append((alpha, CASE_BASE))
    else:
        events.append((alpha, CASE_1 if top * (alpha - 1) <= rest else CASE_3))
    return _case3(lam, ground, alpha, level)


def _case2(lam, ns, ground, alpha, level, events):
    """Top weight dominates: all mass sits on subsets containing the top
    element, so recurse on the remaining ground with level alpha-1."""
    top = 1 << ground[0]
    sub_level = {}
    for u, c in level.items():
        if u & top:
            sub_level[u ^ top] = c
        elif c != 0:
            raise AssertionError(
                f"{CASE_2}: positive weight on mask {u:#b} missing the dominant element"
            )
    sub_covers = _descend(lam, ns, ground[1:], alpha - 1, sub_level, events)
    covers = {}
    uniform = Fraction(1, alpha - 1)
    for u in _masks(ground, alpha):
        children = _children(u, ground)
        if u & top:
            sub = sub_covers[u ^ top]
            covers[u] = {v: sub.get(v ^ top, _ZERO) if v & top else _ZERO for v in children}
        else:
            covers[u] = dict.fromkeys(children, uniform)
    return covers


def _case3(lam, ground, alpha, level):
    """Start from the uniform cover scaled down by the element deficits
    and push the deficit differences onto the children that drop a
    low-weight element.  Balanced weights leave no deficits, and the
    cover stays uniform.

    The child that drops the tau-th element of a parent weighs base plus
    the deficit differences delta_2..delta_tau, whatever the parent, so
    the alpha weights are built once per level and shared.  With the level
    as integers c over d, the loads tilde and the deficits b = lam - tilde
    are integers over dl * d, and the weights integers over
    dl * (alpha - 1) * f, f the level total over d.
    """
    cs, d = over_common_denominator(level.values())
    f = sum(cs)
    if f <= 0:
        raise AssertionError(f"{CASE_3}: needs a positive level total")
    top = ground[:alpha]
    ls, dl = over_common_denominator([lam[e] for e in top])
    # b = lam - tilde, tilde[e] the level weight on the subsets holding e
    b = [n * d - sum(c for u, c in zip(level, cs) if u >> e & 1) * dl for n, e in zip(ls, top)]
    # base = (1 - beta / f) / (alpha - 1), beta = sum_{m<alpha} b_1 - b_m,
    # and delta_2 + ... + delta_tau = (b_1 - b_tau) / f telescopes; unit
    # is 1 over the denominator dl * f
    unit = dl * f
    head = unit - sum(b[0] - x for x in b[1 : alpha - 1])
    den = unit * (alpha - 1)
    # children drop the parent's alpha-th element first
    weights = [
        Fraction(head + (alpha - 1) * (b[0] - b[tau - 1]), den) for tau in range(alpha, 0, -1)
    ]
    return {u: dict(zip(_children(u, ground), weights)) for u in _masks(ground, alpha)}


def _reconstruct(covers, level, ground, alpha):
    """Level alpha-1 as cover-weighted parent sums; `level` may omit
    zero-weight subsets.  The weighted parents and their cover weights go
    over one denominator apiece, so the sums run on integers."""
    live = [(gu, c) for u, gu in covers.items() if (c := level.get(u))]
    cs, dc = over_common_denominator([c for _, c in live])
    ws, dw = over_common_denominator([w for gu, _ in live for w in gu.values()])
    nxt = dict.fromkeys(_masks(ground, alpha - 1), 0)
    weights = iter(ws)
    for (gu, _), c in zip(live, cs):
        for v, n in zip(gu, weights):
            if n:
                nxt[v] += n * c
    d = dc * dw
    return {v: Fraction(n, d) if n else _ZERO for v, n in nxt.items()}


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
    L = len(lam)
    by_encoder = dict(enumerate(lam, 1))
    ns = dict(enumerate(over_common_denominator(lam)[0], 1))
    ground = tuple(sorted(ns, key=lambda e: (-ns[e], e)))
    p = sum(1 for x in lam if x.numerator > 0)

    events: list[tuple[int, str]] = []
    levels_m: dict[int, dict[int, Fraction]] = {alpha: {} for alpha in range(p + 1, L + 1)}
    covers_m: dict[int, dict] = {}
    if p:
        levels_m[p] = {sum(1 << e for e in ground[:p]): by_encoder[ground[p - 1]]}
    for alpha in range(p, 1, -1):
        g = _descend(by_encoder, ns, ground, alpha, levels_m[alpha], events)
        covers_m[alpha] = g
        levels_m[alpha - 1] = _reconstruct(g, levels_m[alpha], ground, alpha)

    sets: dict[int, EncoderSet] = {}
    levels: dict[int, SubsetCoefficients] = {}
    for alpha, lvl in levels_m.items():
        family = subsets_of_size(L, alpha)
        sets.update((u.mask, u) for u in family)
        assignment = {sets[u]: c for u, c in lvl.items()}
        # enumerate the whole family so absent subsets read as zero
        for u in family:
            assignment.setdefault(u, _ZERO)
        levels[alpha] = SubsetCoefficients(assignment)
    covers = {
        alpha: {sets[u]: {sets[v]: w for v, w in gu.items()} for u, gu in per_u.items()}
        for alpha, per_u in covers_m.items()
    }

    chain = CoefficientChain(lam, levels, covers, events)
    if failures := verify_chain(chain).failures:
        raise AssertionError("chain fails its audit: " + "; ".join(failures))
    return chain


def han_chain(L: int) -> CoefficientChain:
    """The classical uniform chain: the chain of equal weights 1/L, whose
    level weights are 1/(alpha*C(L,alpha)) with uniform covers."""
    if L < 1:
        raise ValueError("need at least one encoder")
    return yz_chain((Fraction(1, L),) * L)


def _is_family(subsets, L: int, alpha: int) -> bool:
    """Exactly the alpha-subsets of {1..L}: as many distinct keys, each one."""
    check_ground(L)  # past the cap, raise as enumerating would
    return len(subsets) == comb(L, alpha) and all(
        u.ground_size == L and len(u.members) == alpha for u in subsets
    )


def verify_chain(chain: CoefficientChain) -> ChainReport:
    """Exact structural audit: per-level feasibility and optimality, a
    cover at every subset of positive weight on levels 2..L, each cover's
    children and inequality (once per distinct weight vector), and every
    descent's parent-sum identity, keyed by mask (a set over another
    ground fails its family or cover check); each level and each
    descent's weights go over one denominator once."""
    failures: list[str] = []
    lam = chain.weights
    L = chain.ground_size
    if set(chain.levels) != set(range(1, L + 1)):
        return ChainReport(["levels must cover 1..L"])
    counts, by_mask = {}, {}  # alpha -> numerators, and (mask -> numerator, denominator)
    profile = None
    for alpha in range(1, L + 1):
        assignment = chain.levels[alpha].assignment
        cs, d = over_common_denominator(assignment.values())
        counts[alpha], by_mask[alpha] = cs, ({u.mask: n for u, n in zip(assignment, cs)}, d)
        if not _is_family(assignment, L, alpha):
            failures.append(f"level {alpha}: wrong subset family")
            continue
        profile = profile or f_profile(lam)
        failures += audit_counts(lam, alpha, profile[alpha - 1], assignment, cs, d)
    level1 = {EncoderSet((l,), L): w for l, w in enumerate(lam, 1)}
    if chain.levels[1].assignment != level1:
        failures.append("level 1 must equal the weight vector")
    for alpha in range(2, L + 1):
        per_u = chain.covers.get(alpha, {})
        failures += [
            f"descent {alpha}: no cover at {u}"
            for u, n in zip(chain.levels[alpha].assignment, counts[alpha])
            if n > 0 and u not in per_u
        ]
    for alpha, per_u in chain.covers.items():
        if not 2 <= alpha <= L:
            failures.append(f"descent {alpha}: no such level")
            continue
        ws, g = over_common_denominator([w for gu in per_u.values() for w in gu.values()])
        (up, du), (lo, dl) = by_mask[alpha], by_mask[alpha - 1]
        covering: dict[tuple, bool] = {}  # (numerators, size) -> inequality holds
        recon = dict.fromkeys(lo, 0)
        i = 0
        for u, gu in per_u.items():
            ns, i = tuple(ws[i : i + len(gu)]), i + len(gu)
            key = ns, len(u.members) - 1
            if key not in covering:
                covering[key] = _covers(ns, g, key[1])
            if not (_children_fit(u, gu) and covering[key]):
                failures.append(f"descent {alpha}: invalid cover at {u}")
            # each child v at level alpha-1 collects upper[u] * g_u(v)
            c = up.get(u.mask, 0)
            for v, n in zip(gu, ns):
                recon[v.mask] = recon.get(v.mask, 0) + c * n
        # recon[v] / (du * g) against lower[v], in lower's order
        if not (recon.keys() == lo.keys() and all(
            r * dl == n * du * g for r, n in zip(recon.values(), lo.values())
        )):
            failures.append(f"descent {alpha}: parent-sum identity fails")
    return ChainReport(failures)


# conditional chains ------------------------------------------------------


def conditional_chain(weights, n_secure: int) -> ConditionalAssignment:
    """Attach disjoint adversary sets of size n_secure to a chain.

    The top level alpha = L - n_secure pairs each subset with its
    complement; descents push weights through the same covers as the
    unconditional chain.
    """
    lam = _chain_weights(weights)
    L = len(lam)
    if not 0 <= n_secure <= L - 1:
        raise ValueError(f"n_secure must be in 0..{L - 1}, got {n_secure}")
    assignment = ConditionalAssignment(lam, n_secure, _push(yz_chain(lam), n_secure))
    if failures := verify_conditional(assignment).failures:
        raise AssertionError("conditional chain fails its audit: " + "; ".join(failures))
    return assignment


def _push(chain: CoefficientChain, n_secure: int):
    """The adversary split of every level from L - n_secure down to 1.

    Each level's split is carried on masks as integers over one running
    denominator: a descent puts the level's covers over one denominator G
    and multiplies the running one by G, and a restart takes the fresh
    level's denominator.
    """
    L = chain.ground_size
    top = L - n_secure
    level = chain.levels[top].assignment
    cs, d = over_common_denominator(level.values())
    ground = range(1, L + 1)
    sets = {u.mask: u for k in {*ground[:top], n_secure} - {0} for u in subsets_of_size(L, k)}
    sets[0] = EncoderSet((), L)
    full = sum(1 << e for e in ground)
    split = {top: ({u.mask: {full ^ u.mask: c} for u, c in zip(level, cs)}, d)}
    for alpha in range(top, 1, -1):
        per_u = chain.covers.get(alpha)
        lower: dict[int, dict[int, int]] = {}
        if per_u:
            gs, g = over_common_denominator([w for gu in per_u.values() for w in gu.values()])
            weights = iter(gs)
            g_int = {u.mask: [(v.mask, n) for v, n in zip(gu, weights)] for u, gu in per_u.items()}
            d *= g
        for u, parts in split[alpha][0].items():
            # a vanished level has no covers: push zeros to keep the keys,
            # the children in lex order
            for v, n in g_int[u] if per_u else dict.fromkeys(_children(u, ground), 0).items():
                into = lower.setdefault(v, {})
                for a, s in parts.items():
                    into[a] = into.get(a, 0) + n * s
        if not per_u:
            # restart from the fresh optimum below, each subset's whole
            # weight on its smallest adversary set
            fresh = chain.levels[alpha - 1].assignment
            fs, d = over_common_denominator([fresh[sets[v]] for v in lower])
            for into, n in zip(lower.values(), fs):
                into[min(into, key=lambda a: sets[a].members)] = n
        split[alpha - 1] = lower, d
    return {
        alpha: {sets[u]: {sets[a]: Fraction(n, d) if n else _ZERO for a, n in parts.items()}
                for u, parts in per_level.items()}
        for alpha, (per_level, d) in split.items()
    }


def verify_conditional(assignment: ConditionalAssignment) -> ChainReport:
    """Each level's family and its adversary sets, and the subsets' totals,
    on numerators over one denominator per level, audited as a level."""
    failures: list[str] = []
    lam = assignment.weights
    L = assignment.ground_size
    N = assignment.n_secure
    if not 0 <= N <= L - 1:
        return ChainReport([f"n_secure must be in 0..{L - 1}"])
    top = L - N
    if set(assignment.split) != set(range(1, top + 1)):
        return ChainReport(["levels must cover 1..L-N"])
    profile = None
    for alpha in range(1, top + 1):
        per_u = assignment.split[alpha]
        if not _is_family(per_u, L, alpha):
            failures.append(f"level {alpha}: wrong subset family")
            continue
        ns, d = over_common_denominator([s for parts in per_u.values() for s in parts.values()])
        totals, i = [], 0
        for u, parts in per_u.items():
            row, i = ns[i : i + len(parts)], i + len(parts)
            for a, n in zip(parts, row):
                if len(a.members) != N:
                    failures.append(f"level {alpha}: adversary size != {N} at {u}")
                if a.mask & u.mask:
                    failures.append(f"level {alpha}: adversary overlaps {u}")
                if n < 0:
                    failures.append(f"level {alpha}: negative split weight at {u}")
            totals.append(sum(row))
        profile = profile or f_profile(lam)
        failures += audit_counts(lam, alpha, profile[alpha - 1], per_u, totals, d)
    return ChainReport(failures)


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
    the first nonblank line.  A conditional file carries no covers, so once
    its levels pass, its split must be the one `conditional_chain` builds
    for its weights and N, records of weight zero aside."""
    if not next(iter(_lines(text)), "").startswith(_COND_KIND):
        return verify_chain(chain_from_text(text))
    cond = conditional_from_text(text)
    report = verify_conditional(cond)
    if not report.ok:
        return report
    if (L := cond.ground_size) > MAX_CHAIN_GROUND:
        return ChainReport([f"descent: chains support at most L={MAX_CHAIN_GROUND}, got {L}"])
    built = conditional_chain(cond.weights, cond.n_secure).split
    return ChainReport([
        f"descent {alpha}: adversary split at {u} is not the chain's"
        for alpha in sorted(cond.split, reverse=True)
        for u, parts in cond.split[alpha].items()
        if _positive(parts) != _positive(built[alpha][u])
    ])


def _positive(parts: dict) -> dict:
    return {a: s for a, s in parts.items() if s}
