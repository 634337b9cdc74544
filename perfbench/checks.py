"""Oracles for every benchmark operation, independent of the measured paths.

None of these calls the library code an operation measures.  Level
coefficients come from the closed form

    f_alpha(lam) = min over j = 0..alpha-1 of
                   (sum of lam without its j largest entries) / (alpha - j),

which equals the packing LP optimum the library solves; membership
witnesses are re-checked constraint by constraint with `itertools`
rather than `smdc.subsets`.  Every function returns True or False and
never raises on a wrong answer, so a wrong answer is counted, not fatal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

_ZERO = Fraction(0)


def f_closed(weights, alpha: int) -> Fraction:
    """Level-alpha packing optimum for nonnegative weights, 1 <= alpha <= L."""
    lam = sorted((Fraction(w) for w in weights), reverse=True)
    return min(sum(lam[j:], _ZERO) / (alpha - j) for j in range(alpha))


def codec_ok(expected, got) -> bool:
    """Byte-for-byte equality of every recovered source."""
    return isinstance(got, list) and [bytes(g) for g in got] == list(expected)


def profile_ok(weights, got) -> bool:
    L = len(weights)
    return tuple(got) == tuple(f_closed(weights, a) for a in range(1, L + 1))


def _loads_ok(weights, assignment) -> bool:
    """Nonnegative subset weights whose per-encoder load stays within lam."""
    load = [_ZERO] * len(weights)
    for u, c in assignment.items():
        if c < 0:
            return False
        for l in u.members:
            load[l - 1] += c
    return all(x <= w for x, w in zip(load, weights))


def chain_ok(weights, chain) -> bool:
    """Level totals match the closed form, loads fit, level 1 is lam."""
    L = len(weights)
    if set(chain.levels) != set(range(1, L + 1)):
        return False
    for alpha in range(1, L + 1):
        assignment = chain.levels[alpha].assignment
        if any(len(u.members) != alpha for u in assignment):
            return False
        if sum(assignment.values(), _ZERO) != f_closed(weights, alpha):
            return False
        if not _loads_ok(weights, assignment):
            return False
    level1 = {u.members[0]: c for u, c in chain.levels[1].assignment.items()}
    return all(level1.get(l, _ZERO) == Fraction(w) for l, w in enumerate(weights, 1))


def conditional_ok(weights, n_secure: int, assignment) -> bool:
    """Marginal totals match the closed form on levels 1..L-N, loads fit,
    and every adversary set has size N and avoids its subset."""
    L = len(weights)
    top = L - n_secure
    if set(assignment.split) != set(range(1, top + 1)):
        return False
    for alpha in range(1, top + 1):
        marginal = {}
        for u, parts in assignment.split[alpha].items():
            if len(u.members) != alpha:
                return False
            for adv, s in parts.items():
                if len(adv.members) != n_secure or set(adv.members) & set(u.members):
                    return False
                if s < 0:
                    return False
            marginal[u] = sum(parts.values(), _ZERO)
        if sum(marginal.values(), _ZERO) != f_closed(weights, alpha):
            return False
        if not _loads_ok(weights, marginal):
            return False
    return True


def _witness_ok(rates, entropies, levels, witness, r0) -> bool:
    """The per-level split meets every subset demand within the capacities.
    Slot 0 is the all-access encoder when r0 is not None."""
    L = len(rates)
    offset = 0 if r0 is None else 1
    caps = list(rates) if r0 is None else [r0] + list(rates)
    if set(witness) != set(levels):
        return False
    used = [_ZERO] * len(caps)
    for alpha in levels:
        split = witness[alpha]
        if len(split) != len(caps) or any(x < 0 for x in split):
            return False
        for slot, x in enumerate(split):
            used[slot] += x
        base = split[0] if r0 is not None else _ZERO
        for u in combinations(range(L), alpha):
            if base + sum((split[offset + l] for l in u), _ZERO) < entropies[alpha - 1]:
                return False
    return all(u <= c for u, c in zip(used, caps))


def member_ok(query, verdict) -> bool:
    """Verdict known by construction, plus an exact check of what backs it:
    a feasible witness for members, a violated hyperplane for non-members."""
    if verdict.member != query.expected:
        return False
    r = query.rates
    h = query.entropies
    levels = range(1, len(h) + 1)
    r0 = query.r0 if query.scheme == "all-access" else None
    if verdict.member:
        return verdict.witness is not None and _witness_ok(r, h, levels, verdict.witness, r0)
    lam = verdict.certificate
    if lam is None or len(lam) != len(r) or any(x < 0 for x in lam):
        return False
    lhs = sum((a * b for a, b in zip(lam, r)), _ZERO)
    prof = [f_closed(lam, a) for a in levels]
    if r0 is None:
        rhs = sum((f * e for f, e in zip(prof, h)), _ZERO)
    else:
        lam0 = verdict.certificate_lambda0
        if lam0 is None or lam0 < 0:
            return False
        lhs += lam0 * r0
        rhs = sum((min(f, lam0) * e for f, e in zip(prof, h)), _ZERO)
    return lhs < rhs


def entropy_ok(reports) -> bool:
    """Every checked inequality is a theorem, so every report must hold."""
    return bool(reports) and all(r.holds for r in reports)
