"""Coefficient chains linked by fractional covers.

A chain holds, for each subset level alpha, an optimal solution of the
per-level packing LP, and for each descent a family of fractional
covers that reproduces level alpha-1 from level alpha by weighted
parent sums.  No LP is solved: the descent starts from the one optimal
top level and each step dispatches into three cases depending on how
top-heavy the sorted weight vector is.  The finished chain is audited
exactly (every level against the closed-form level optimum, every cover
against the covering inequality), so a bad construction raises instead
of propagating.

The conditional variant additionally attaches to each subset a family
of disjoint "adversary" sets of fixed size and splits the level weights
across them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .exactlp import as_fraction, as_fractions
from .region import SubsetCoefficients, f_value
# re-exported: the benchmark tracer (perfbench/tracing.py) wraps covers.f_alpha
from .region import f_alpha  # noqa: F401
from .subsets import EncoderSet, subsets_of_size

_ZERO = Fraction(0)
_ONE = Fraction(1)

CASE_BASE = "base"
CASE_1 = "case1"
CASE_2 = "case2"
CASE_3 = "case3"


class CoverConstructionError(RuntimeError):
    """A constructed cover or level failed its exact re-verification."""


@dataclass(frozen=True)
class FractionalCover:
    """Nonnegative child weights covering every element of the parent."""

    parent: EncoderSet
    weights: dict[EncoderSet, Fraction]


def verify_cover(cover: FractionalCover) -> bool:
    """Exact check of the covering inequality on every parent element."""
    children = set(cover.parent.children())
    if set(cover.weights) - children:
        return False
    if any(w < 0 for w in cover.weights.values()):
        return False
    for i in cover.parent:
        total = sum(
            (w for v, w in cover.weights.items() if i in v), _ZERO
        )
        if total < 1:
            return False
    return True


@dataclass
class CoefficientChain:
    weights: tuple[Fraction, ...]
    levels: dict[int, SubsetCoefficients]
    covers: dict[int, dict[EncoderSet, FractionalCover]]
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

    def level_coefficients(self, alpha: int) -> SubsetCoefficients:
        assignment = {
            u: sum(parts.values(), _ZERO) for u, parts in self.split[alpha].items()
        }
        return SubsetCoefficients(level=alpha, assignment=assignment)


@dataclass
class ChainReport:
    ok: bool
    failures: list[str]


# sorted-space construction ----------------------------------------------
#
# The descent works on a ground tuple whose weights are nonincreasing.
# Subsets are plain sorted tuples of ground elements; translation to the
# caller's index space happens at the chain boundary.


def _tuple_children(u: tuple[int, ...]):
    return combinations(u, len(u) - 1)


def _descend(lam, ground, alpha, level, events):
    """Covers taking the given optimal level alpha down to alpha-1.

    lam: element -> weight (nonincreasing along ground); level: subset
    tuple -> weight, with positive total.  Returns parent tuple -> child
    tuple -> weight.
    """
    lam_list = [lam[e] for e in ground]
    top = lam_list[0]
    rest = sum(lam_list[1:], _ZERO)

    if len(ground) == 2 and alpha == 2:
        events.append((alpha, CASE_BASE))
        u = tuple(ground)
        lam2 = lam_list[1]
        if lam2 <= 0:
            raise CoverConstructionError("base descent needs a positive bottom weight")
        return {u: {(ground[0],): lam_list[0] / lam2, (ground[1],): _ONE}}

    if top <= rest / (alpha - 1):
        events.append((alpha, CASE_1))
        return _case1(ground, alpha)
    if alpha >= 3 and top > rest / (alpha - 2):
        events.append((alpha, CASE_2))
        return _case2(lam, ground, alpha, level, events)
    events.append((alpha, CASE_3))
    return _case3(lam, ground, alpha, level)


def _case1(ground, alpha):
    w = Fraction(1, alpha - 1)
    covers = {}
    for u in combinations(ground, alpha):
        covers[u] = {v: w for v in _tuple_children(u)}
    return covers


def _case2(lam, ground, alpha, level, events):
    """Top weight dominates: all mass sits on subsets containing the top
    element, so recurse on the remaining ground with level alpha-1."""
    e1 = ground[0]
    sub_ground = ground[1:]
    sub_level = {}
    for u, c in level.items():
        if e1 in u:
            sub_level[tuple(x for x in u if x != e1)] = c
        elif c != 0:
            raise CoverConstructionError(
                f"{CASE_2}: positive weight on {u} missing the dominant element"
            )
    sub_covers = _descend(lam, sub_ground, alpha - 1, sub_level, events)
    covers = {}
    uniform = Fraction(1, alpha - 1)
    for u in combinations(ground, alpha):
        if e1 in u:
            ut = tuple(x for x in u if x != e1)
            gu = {}
            for v in _tuple_children(u):
                if e1 in v:
                    vt = tuple(x for x in v if x != e1)
                    gu[v] = sub_covers[ut].get(vt, _ZERO)
                else:
                    gu[v] = _ZERO
            covers[u] = gu
        else:
            covers[u] = {v: uniform for v in _tuple_children(u)}
    return covers


def _case3(lam, ground, alpha, level):
    """Intermediate imbalance: start from the uniform cover scaled down by
    the element deficits and push the deficit differences onto the
    children that drop a low-position element."""
    f_val = sum(level.values(), _ZERO)
    if f_val <= 0:
        raise CoverConstructionError(f"{CASE_3}: needs a positive level total")
    tilde = {e: _ZERO for e in ground}
    for u, c in level.items():
        if c:
            for e in u:
                tilde[e] += c
    b = [lam[e] - tilde[e] for e in ground]
    beta = sum((b[0] - b[m - 1] for m in range(2, alpha)), _ZERO)
    base = (_ONE - beta / f_val) / (alpha - 1)
    covers = {}
    for u in combinations(ground, alpha):
        gu = {v: base for v in _tuple_children(u)}
        for m in range(2, alpha + 1):
            delta = (b[m - 2] - b[m - 1]) / f_val
            if delta == 0:
                continue
            for tau in range(m, alpha + 1):
                # drop the tau-th smallest element of u
                v = u[: tau - 1] + u[tau:]
                gu[v] += delta
        covers[u] = gu
    return covers


def _reconstruct(covers, level, ground, alpha):
    """Level alpha-1 as cover-weighted parent sums; `level` may omit
    zero-weight subsets."""
    nxt = {v: _ZERO for v in combinations(ground, alpha - 1)}
    for u, gu in covers.items():
        c = level.get(u)
        if c:
            for v, w in gu.items():
                if w:
                    nxt[v] += w * c
    return nxt


# chain construction ------------------------------------------------------


def _to_encoder_set(t, order, L):
    return EncoderSet(tuple(sorted(order[p - 1] + 1 for p in t)), L)


def yz_chain(weights) -> CoefficientChain:
    """Full chain of per-level optima linked by covers for one weight vector.

    With p positive weights the levels above p vanish and carry no covers;
    level p is the one subset of the p largest weights, weighted by the
    smallest of them, and the descent runs from there down to level 1.
    """
    lam = as_fractions(weights)
    if not lam or any(x < 0 for x in lam):
        raise ValueError("weights must be nonempty and nonnegative")
    L = len(lam)
    order = sorted(range(L), key=lambda i: (-lam[i], i))
    slam_vector = tuple(lam[i] for i in order)
    slam = {i: slam_vector[i - 1] for i in range(1, L + 1)}
    ground = tuple(range(1, L + 1))
    p = sum(1 for x in lam if x > 0)

    events: list[tuple[int, str]] = []
    levels_s: dict[int, dict[tuple[int, ...], Fraction]] = {
        alpha: {} for alpha in range(p + 1, L + 1)
    }
    covers_s: dict[int, dict] = {}
    if p:
        levels_s[p] = {ground[:p]: slam_vector[p - 1]}
    for alpha in range(p, 1, -1):
        g = _descend(slam, ground, alpha, levels_s[alpha], events)
        covers_s[alpha] = g
        levels_s[alpha - 1] = _reconstruct(g, levels_s[alpha], ground, alpha)

    levels: dict[int, SubsetCoefficients] = {}
    for alpha, lvl in levels_s.items():
        assignment = {_to_encoder_set(u, order, L): c for u, c in lvl.items()}
        # enumerate the whole family so absent subsets read as zero
        for u in subsets_of_size(L, alpha):
            assignment.setdefault(u, _ZERO)
        levels[alpha] = SubsetCoefficients(level=alpha, assignment=assignment)
    covers: dict[int, dict[EncoderSet, FractionalCover]] = {}
    for alpha, per_u in covers_s.items():
        out = {}
        for u, gu in per_u.items():
            u_set = _to_encoder_set(u, order, L)
            out[u_set] = FractionalCover(
                parent=u_set,
                weights={_to_encoder_set(v, order, L): w for v, w in gu.items()},
            )
        covers[alpha] = out

    chain = CoefficientChain(
        weights=lam, levels=levels, covers=covers, case_events=events
    )
    _verify_built_chain(chain)
    return chain


def _verify_built_chain(chain: CoefficientChain) -> None:
    report = verify_chain(chain)
    if not report.ok:
        raise CoverConstructionError("; ".join(report.failures))


def han_chain(L: int) -> CoefficientChain:
    """The classical uniform chain: the chain of equal weights 1/L, whose
    level weights are 1/(alpha*C(L,alpha)) with uniform covers."""
    if L < 1:
        raise ValueError("need at least one encoder")
    return yz_chain((Fraction(1, L),) * L)


def _audit_level(lam, alpha: int, coeffs: SubsetCoefficients) -> list[str]:
    """Nonnegative, within every encoder's capacity, and optimal in total."""
    failures = []
    if any(v < 0 for v in coeffs.assignment.values()):
        failures.append(f"level {alpha}: negative coefficient")
    for l in range(1, len(lam) + 1):
        load = sum((v for u, v in coeffs.assignment.items() if l in u), _ZERO)
        if load > lam[l - 1]:
            failures.append(f"level {alpha}: capacity exceeded at encoder {l}")
    if coeffs.total != f_value(lam, alpha):
        failures.append(f"level {alpha}: total differs from the optimum")
    return failures


def verify_chain(chain: CoefficientChain) -> ChainReport:
    """Exact structural audit: per-level feasibility and optimality,
    cover inequalities, and the parent-sum identity wherever covers exist."""
    failures: list[str] = []
    lam = chain.weights
    L = chain.ground_size
    if set(chain.levels) != set(range(1, L + 1)):
        failures.append("levels must cover 1..L")
        return ChainReport(ok=False, failures=failures)
    for alpha in range(1, L + 1):
        coeffs = chain.levels[alpha]
        expected = {u for u in subsets_of_size(L, alpha)}
        if set(coeffs.assignment) != expected:
            failures.append(f"level {alpha}: wrong subset family")
            continue
        failures += _audit_level(lam, alpha, coeffs)
    level1 = {EncoderSet((l,), L): w for l, w in enumerate(lam, 1)}
    if chain.levels[1].assignment != level1:
        failures.append("level 1 must equal the weight vector")
    for alpha, per_u in chain.covers.items():
        if not 2 <= alpha <= L:
            failures.append(f"descent {alpha}: no such level")
            continue
        upper = chain.levels[alpha].assignment
        lower = chain.levels[alpha - 1].assignment
        for u, cover in per_u.items():
            if cover.parent != u or not verify_cover(cover):
                failures.append(f"descent {alpha}: invalid cover at {u}")
        recon = {v: _ZERO for v in lower}
        for u, cover in per_u.items():
            c = upper.get(u, _ZERO)
            for v, w in cover.weights.items():
                recon[v] = recon.get(v, _ZERO) + w * c
        if recon != dict(lower):
            failures.append(f"descent {alpha}: parent-sum identity fails")
    return ChainReport(ok=not failures, failures=failures)


# conditional chains ------------------------------------------------------


def conditional_chain(weights, n_secure: int) -> ConditionalAssignment:
    """Attach disjoint adversary sets of size n_secure to a chain.

    The top level alpha = L - n_secure pairs each subset with its
    complement; descents push weights through the same covers as the
    unconditional chain.
    """
    lam = as_fractions(weights)
    L = len(lam)
    if not 0 <= n_secure <= L - 1:
        raise ValueError(f"n_secure must be in 0..{L - 1}, got {n_secure}")
    chain = yz_chain(lam)
    top = L - n_secure
    split: dict[int, dict[EncoderSet, dict[EncoderSet, Fraction]]] = {}
    split[top] = {
        u: {u.complement(): c}
        for u, c in chain.levels[top].assignment.items()
    }
    for alpha in range(top, 1, -1):
        upper = split[alpha]
        families: dict[EncoderSet, set[EncoderSet]] = {}
        for v in subsets_of_size(L, alpha - 1):
            fam = set()
            for u in v.parents():
                fam.update(upper[u].keys())
            families[v] = fam
        lower: dict[EncoderSet, dict[EncoderSet, Fraction]] = {}
        per_u = chain.covers.get(alpha)
        if per_u is not None:
            for v, fam in families.items():
                parts = {a: _ZERO for a in fam}
                for u in v.parents():
                    g = per_u[u].weights[v]
                    if g:
                        for a, s in upper[u].items():
                            if s:
                                parts[a] += g * s
                lower[v] = parts
        else:
            # vanished level above: restart from the fresh optimum below,
            # put each subset's whole weight on its smallest adversary set
            fresh = chain.levels[alpha - 1].assignment
            for v, fam in families.items():
                parts = {a: _ZERO for a in fam}
                first = min(fam, key=lambda a: a.members)
                parts[first] = fresh[v]
                lower[v] = parts
        split[alpha - 1] = lower
    assignment = ConditionalAssignment(
        weights=lam, n_secure=n_secure, split=split
    )
    report = verify_conditional(assignment)
    if not report.ok:
        raise CoverConstructionError("; ".join(report.failures))
    return assignment


def verify_conditional(assignment: ConditionalAssignment) -> ChainReport:
    failures: list[str] = []
    lam = assignment.weights
    L = assignment.ground_size
    N = assignment.n_secure
    if not 0 <= N <= L - 1:
        return ChainReport(ok=False, failures=[f"n_secure must be in 0..{L - 1}"])
    top = L - N
    if set(assignment.split) != set(range(1, top + 1)):
        return ChainReport(ok=False, failures=["levels must cover 1..L-N"])
    for alpha in range(1, top + 1):
        per_u = assignment.split[alpha]
        if set(per_u) != set(subsets_of_size(L, alpha)):
            failures.append(f"level {alpha}: wrong subset family")
            continue
        for u, parts in per_u.items():
            for a, s in parts.items():
                if len(a) != N:
                    failures.append(f"level {alpha}: adversary size != {N} at {u}")
                if a.mask & u.mask:
                    failures.append(f"level {alpha}: adversary overlaps {u}")
                if s < 0:
                    failures.append(f"level {alpha}: negative split weight at {u}")
        failures += _audit_level(lam, alpha, assignment.level_coefficients(alpha))
    return ChainReport(ok=not failures, failures=failures)


# line-oriented serialization ---------------------------------------------

_CHAIN_HEADER = "smdc-chain 1"
_COND_HEADER = "smdc-cond-chain 1"


def _format_subset(u: EncoderSet) -> str:
    return ",".join(str(m) for m in u.members) if u.members else "-"


def _parse_subset(text: str, L: int) -> EncoderSet:
    if text == "-":
        return EncoderSet((), L)
    return EncoderSet(tuple(int(x) for x in text.split(",")), L)


def chain_to_text(chain: CoefficientChain) -> str:
    lines = [_CHAIN_HEADER]
    lines.append("lambda " + " ".join(str(x) for x in chain.weights))
    for alpha in sorted(chain.levels):
        for u in sorted(chain.levels[alpha].assignment, key=lambda s: s.members):
            lines.append(
                f"c {alpha} {_format_subset(u)} {chain.levels[alpha].assignment[u]}"
            )
    for alpha in sorted(chain.covers):
        per_u = chain.covers[alpha]
        for u in sorted(per_u, key=lambda s: s.members):
            for v in sorted(per_u[u].weights, key=lambda s: s.members):
                lines.append(
                    f"g {alpha} {_format_subset(u)} {_format_subset(v)} "
                    f"{per_u[u].weights[v]}"
                )
    return "\n".join(lines) + "\n"


def chain_from_text(text: str) -> CoefficientChain:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _CHAIN_HEADER:
        raise ValueError(f"expected header {_CHAIN_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("lambda "):
        raise ValueError("expected a lambda line")
    lam = as_fractions(lines[1].split()[1:])
    L = len(lam)
    levels: dict[int, dict[EncoderSet, Fraction]] = {}
    covers: dict[int, dict[EncoderSet, dict[EncoderSet, Fraction]]] = {}
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] == "c" and len(parts) == 4:
            alpha = int(parts[1])
            u = _parse_subset(parts[2], L)
            levels.setdefault(alpha, {})[u] = as_fraction(parts[3])
        elif parts[0] == "g" and len(parts) == 5:
            alpha = int(parts[1])
            u = _parse_subset(parts[2], L)
            v = _parse_subset(parts[3], L)
            covers.setdefault(alpha, {}).setdefault(u, {})[v] = as_fraction(parts[4])
        else:
            raise ValueError(f"unrecognized chain line: {ln!r}")
    built_levels = {
        alpha: SubsetCoefficients(level=alpha, assignment=assignment)
        for alpha, assignment in levels.items()
    }
    built_covers = {
        alpha: {
            u: FractionalCover(parent=u, weights=weights)
            for u, weights in per_u.items()
        }
        for alpha, per_u in covers.items()
    }
    return CoefficientChain(weights=lam, levels=built_levels, covers=built_covers)


def conditional_to_text(assignment: ConditionalAssignment) -> str:
    lines = [_COND_HEADER]
    lines.append("lambda " + " ".join(str(x) for x in assignment.weights))
    lines.append(f"n {assignment.n_secure}")
    for alpha in sorted(assignment.split):
        per_u = assignment.split[alpha]
        for u in sorted(per_u, key=lambda s: s.members):
            for a in sorted(per_u[u], key=lambda s: s.members):
                lines.append(
                    f"s {alpha} {_format_subset(u)} {_format_subset(a)} "
                    f"{per_u[u][a]}"
                )
    return "\n".join(lines) + "\n"


def conditional_from_text(text: str) -> ConditionalAssignment:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _COND_HEADER:
        raise ValueError(f"expected header {_COND_HEADER!r}")
    if len(lines) < 2 or not lines[1].startswith("lambda "):
        raise ValueError("expected a lambda line")
    lam = as_fractions(lines[1].split()[1:])
    if len(lines) < 3 or not lines[2].startswith("n "):
        raise ValueError("expected an n line")
    n_secure = int(lines[2].split()[1])
    L = len(lam)
    split: dict[int, dict[EncoderSet, dict[EncoderSet, Fraction]]] = {}
    for ln in lines[3:]:
        parts = ln.split()
        if parts[0] != "s" or len(parts) != 5:
            raise ValueError(f"unrecognized conditional line: {ln!r}")
        alpha = int(parts[1])
        u = _parse_subset(parts[2], L)
        a = _parse_subset(parts[3], L)
        split.setdefault(alpha, {}).setdefault(u, {})[a] = as_fraction(parts[4])
    return ConditionalAssignment(weights=lam, n_secure=n_secure, split=split)
