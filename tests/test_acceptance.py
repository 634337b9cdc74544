"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from smdc.codec import (
    key_bytes_needed,
    smdc_decode,
    smdc_encode,
    smdca_decode,
    smdca_encode,
    ssmdc_decode,
    ssmdc_encode,
)
from smdc.covers import CASE_1, CASE_2, CASE_3, conditional_chain, verify_chain, verify_conditional, yz_chain
from smdc.entropy import (
    check_han,
    check_sliding_window,
    check_yz,
    check_conditional_yz,
    permutation_identity,
    random_pmf,
    random_product_pmf,
)
from smdc.gf import GF16
from smdc.region import (
    f_alpha,
    f_profile,
    greedy_allocation,
    greedy_matches_region,
    min_sum_rate,
    residual_hyperplane,
    smdc_member,
    smdca_member,
    ssmdc_member,
)
from smdc.rs import encode_matrix, ramp_spec

F = Fraction
TOL = 1e-9
PRODUCT_TOL = 1e-12


_CLOCK = {}


@pytest.fixture(autouse=True)
def _start_clock():
    _CLOCK["start"] = time.perf_counter()
    yield


def report(n, message):
    elapsed = time.perf_counter() - _CLOCK["start"]
    print(f"\n[criterion {n}] PASS ({elapsed:.1f}s) - {message}")


def rand_frac(rng, num=8, den=4):
    return F(rng.randint(0, num), rng.randint(1, den))


def rand_lambda(rng, L):
    style = rng.randrange(3)
    if style == 0:
        return [rand_frac(rng, 6, 4) for _ in range(L)]
    if style == 1:
        lam = [F(rng.randint(1, 3)) for _ in range(L)]
        lam[rng.randrange(L)] = F(rng.randint(10, 80))
        return lam
    lam = [F(rng.randint(0, 3)) for _ in range(L)]
    lam[rng.randrange(L)] = F(rng.randint(2, 9), rng.randint(1, 3))
    return lam


def test_criterion_1_uniform_closed_form():
    for L in range(1, 9):
        for alpha in range(1, L + 1):
            assert f_alpha([1] * L, alpha).total == F(L, alpha)
    assert min_sum_rate((1, 1, 1)) == F(11, 2)
    report(1, "f_alpha(1) = L/alpha for L <= 8; min sum rate (1,1,1) = 11/2")


def test_criterion_2_profile_monotonicity():
    rng = random.Random(20260802)
    checked = 0
    for L in range(2, 7):
        for _ in range(1000):
            lam = [rand_frac(rng) for _ in range(L)]
            prof = f_profile(lam)
            assert prof[0] == sum(lam)
            assert all(a >= b for a, b in zip(prof, prof[1:]))
            assert prof[-1] >= 0
            checked += 1
    assert checked == 5000
    report(2, f"profile nonincreasing and nonnegative on {checked} weight vectors")


def _chain_sample(seed, trials):
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        L = rng.randint(2, 6)
        out.append((L, rand_lambda(rng, L)))
    return out


def test_criterion_3_chain_correctness():
    cases = Counter()
    trials = _chain_sample(20260803, 200)
    for L, lam in trials:
        chain = yz_chain(lam)
        audit = verify_chain(chain)
        assert audit.ok, (lam, audit.failures)
        for alpha in range(1, L + 1):
            assert chain.levels[alpha].total == f_alpha(lam, alpha).total
        cases.update(c for _, c in chain.case_events)
    assert cases[CASE_1] > 0 and cases[CASE_2] > 0 and cases[CASE_3] > 0, cases
    report(
        3,
        "200 chains verified level-by-level against the LP; case dispatch "
        f"counts {dict(sorted(cases.items()))}",
    )


def test_criterion_4_han_and_window():
    rng = random.Random(20260804)
    checked = 0
    for _ in range(500):
        L = rng.randint(2, 4)
        pmf = random_pmf(rng, [rng.randint(2, 3)] * L)
        for alpha in range(2, L + 1):
            assert check_han(pmf, alpha).slack >= -TOL
            assert check_sliding_window(pmf, alpha).slack >= -TOL
        checked += 1
    equal = 0
    for _ in range(60):
        L = rng.randint(2, 4)
        pmf = random_product_pmf(rng, [rng.randint(2, 3)] * L)
        for alpha in range(2, L + 1):
            assert abs(check_sliding_window(pmf, alpha).slack) <= PRODUCT_TOL
            equal += 1
    report(
        4,
        f"han and window hold on {checked} pmfs; window equality within "
        f"1e-12 on {equal} product-pmf levels",
    )


def test_criterion_5_chain_inequality():
    rng = random.Random(20260805)
    pair_checks = 0
    for L in (2, 3, 4):
        chains = [yz_chain(rand_lambda(rng, L)) for _ in range(20)]
        pmfs = [random_pmf(rng, [2] * L) for _ in range(34)]
        for pmf in pmfs:
            for chain in chains:
                for alpha in range(2, L + 1):
                    assert check_yz(pmf, chain, alpha).slack >= -TOL
                    pair_checks += 1
    report(5, f"chain inequality holds on {pair_checks} (pmf, chain, level) checks")


def test_criterion_6_conditional_chains():
    rng = random.Random(20260806)
    structural = 0
    for L in range(2, 6):
        for n in range(0, min(3, L)):
            for _ in range(4):
                cond = conditional_chain(rand_lambda(rng, L), n)
                assert verify_conditional(cond).ok
                structural += 1
    pmf_checks = 0
    while pmf_checks < 100:
        L = rng.randint(3, 5)
        n = rng.randint(1, 2)
        if n > L - 2:
            continue
        cond = conditional_chain(rand_lambda(rng, L), n)
        pmf = random_pmf(rng, [2] * L)
        for alpha in range(2, L - n + 1):
            assert check_conditional_yz(pmf, cond, alpha).slack >= -TOL
        pmf_checks += 1
    report(
        6,
        f"{structural} conditional chains structurally exact; conditional "
        f"inequality holds on {pmf_checks} pmfs",
    )


def test_criterion_7_permutation_identity():
    for L in range(2, 7):
        for alpha in range(2, L + 1):
            assert permutation_identity(L, alpha)
    report(7, "window relabeling multiplicity L*alpha!*(L-alpha)! for L <= 6")


def _random_entropies(rng, L):
    h = [rand_frac(rng, 4, 2) for _ in range(L)]
    if sum(h) == 0:
        h[rng.randrange(L)] = F(1)
    return h


def _symmetric_point(h, levels):
    return sum(h[a - 1] / a for a in levels)


def _member_rates(rng, h, levels, L):
    base = _symmetric_point(h, levels)
    return [base + rand_frac(rng, 2, 3) for _ in range(L)]


def _scaled_inside(rng, h, levels, L):
    base = _symmetric_point(h, levels)
    t = F(rng.randint(1, 8), 10)
    return [base * t for _ in range(L)]


def test_criterion_8_membership_duality():
    rng = random.Random(20260808)
    lambda_cache = {}

    def lambdas_for(L):
        if L not in lambda_cache:
            lams = [rand_lambda(rng, L) for _ in range(100)]
            lambda_cache[L] = [(lam, f_profile(lam)) for lam in lams]
        return lambda_cache[L]

    members = Counter()
    nonmembers = Counter()
    for trial in range(100):
        L = rng.randint(2, 4)
        # plain scheme
        h = _random_entropies(rng, L)
        levels = range(1, L + 1)
        rates = _member_rates(rng, h, levels, L)
        verdict = smdc_member(rates, h)
        assert verdict.member
        for lam, prof in lambdas_for(L):
            lhs = sum(a * b for a, b in zip(lam, rates))
            rhs = sum(prof[a - 1] * h[a - 1] for a in levels)
            assert lhs >= rhs
        members["smdc"] += 1
        bad = _scaled_inside(rng, h, levels, L)
        verdict = smdc_member(bad, h)
        assert not verdict.member
        lam = verdict.certificate
        prof = f_profile(lam)
        assert sum(a * b for a, b in zip(lam, bad)) < sum(
            prof[a - 1] * h[a - 1] for a in levels
        )
        nonmembers["smdc"] += 1

        # all-access scheme
        r0 = rand_frac(rng, 4, 2)
        alloc = greedy_allocation(r0, h)
        res = alloc.residual
        base = _symmetric_point(res, levels)
        rates = [base + rand_frac(rng, 2, 3) for _ in range(L)]
        verdict = smdca_member(r0, rates, h)
        assert verdict.member
        for lam, prof in lambdas_for(L):
            for m in levels:
                lhs = prof[m - 1] * r0 + sum(a * b for a, b in zip(lam, rates))
                rhs = prof[m - 1] * sum(h[:m]) + sum(
                    prof[a - 1] * h[a - 1] for a in range(m + 1, L + 1)
                )
                assert lhs >= rhs
        members["smdc-a"] += 1
        # keep the budget strictly below the total so the residual, and with
        # it the scaled-down point's violation, is guaranteed
        r0_bad = sum(h) * F(rng.randint(0, 8), 10)
        res_bad = greedy_allocation(r0_bad, h).residual
        base_bad = _symmetric_point(res_bad, levels)
        t = F(rng.randint(0, 8), 10)
        bad = [base_bad * t for _ in range(L)]
        verdict = smdca_member(r0_bad, bad, h)
        assert not verdict.member
        lam0, lam, m = (
            verdict.certificate_lambda0,
            verdict.certificate,
            verdict.certificate_m,
        )
        prof = f_profile(lam)
        lhs = prof[m - 1] * r0_bad + sum(a * b for a, b in zip(lam, bad))
        rhs = prof[m - 1] * sum(h[:m]) + sum(
            prof[a - 1] * h[a - 1] for a in range(m + 1, L + 1)
        )
        assert lhs < rhs
        lhs0 = lam0 * r0_bad + sum(a * b for a, b in zip(lam, bad))
        rhs0 = sum(min(prof[a - 1], lam0) * h[a - 1] for a in levels)
        assert lhs0 < rhs0
        nonmembers["smdc-a"] += 1

        # secure scheme
        n = rng.randint(0, L - 1)
        hs = h[: L - n]
        if sum(hs) == 0:
            hs[0] = F(1)
        slevels = range(1, L - n + 1)
        rates = _member_rates(rng, hs, slevels, L)
        verdict = ssmdc_member(rates, hs, n)
        assert verdict.member
        for lam, prof in lambdas_for(L):
            lhs = sum(a * b for a, b in zip(lam, rates))
            rhs = sum(prof[a - 1] * hs[a - 1] for a in slevels)
            assert lhs >= rhs
        members["s-smdc"] += 1
        bad = _scaled_inside(rng, hs, slevels, L)
        verdict = ssmdc_member(bad, hs, n)
        assert not verdict.member
        lam = verdict.certificate
        prof = f_profile(lam)
        assert sum(a * b for a, b in zip(lam, bad)) < sum(
            prof[a - 1] * hs[a - 1] for a in slevels
        )
        nonmembers["s-smdc"] += 1

    assert all(members[k] == 100 for k in ("smdc", "smdc-a", "s-smdc"))
    assert all(nonmembers[k] == 100 for k in ("smdc", "smdc-a", "s-smdc"))
    report(
        8,
        f"members {dict(members)} checked against 100 hyperplanes each; "
        f"non-member certificates {dict(nonmembers)} all separate exactly",
    )


def test_criterion_9_domination_and_greedy():
    rng = random.Random(20260809)
    trials = 0
    case_hits = Counter()
    interval_hits = Counter()
    while trials < 200:
        L = rng.randint(2, 5)
        lam = rand_lambda(rng, L)
        h = _random_entropies(rng, L)
        total = sum(h)
        cum = F(0)
        candidates = [(None, total + rand_frac(rng, 3, 2))]
        for q in range(1, L + 1):
            if h[q - 1] > 0:
                candidates.append((q, cum + h[q - 1] / 2))
            cum += h[q - 1]
        q_label, r0 = candidates[trials % len(candidates)]
        interval_hits[q_label if q_label is not None else "all"] += 1
        assert greedy_matches_region(lam, h, r0)

        prof = f_profile(lam)
        lam0 = rand_frac(rng, 10, 3)
        if prof[0] > 0 and lam0 >= prof[0]:
            case_hits["high"] += 1
        elif lam0 < prof[-1]:
            case_hits["low"] += 1
        else:
            case_hits["between"] += 1
        alloc = greedy_allocation(r0, h)
        base = _symmetric_point(alloc.residual, range(1, L + 1))
        for rates, r0_used in (
            ([base + rand_frac(rng, 2, 3) for _ in range(L)], r0),
            ([rand_frac(rng, 6, 2) for _ in range(L)], rand_frac(rng, 4, 2)),
        ):
            satisfies_all = all(
                prof[m - 1] * r0_used + sum(a * b for a, b in zip(lam, rates))
                >= prof[m - 1] * sum(h[:m])
                + sum(prof[a - 1] * h[a - 1] for a in range(m + 1, L + 1))
                for m in range(1, L + 1)
            )
            if satisfies_all:
                lhs = lam0 * r0_used + sum(a * b for a, b in zip(lam, rates))
                rhs = sum(
                    min(prof[a - 1], lam0) * h[a - 1] for a in range(1, L + 1)
                )
                assert lhs >= rhs
        trials += 1
    assert set(case_hits) == {"high", "low", "between"}
    assert interval_hits["all"] > 0 and len(interval_hits) >= 4
    report(
        9,
        f"greedy max verified on 200 trials across intervals "
        f"{dict(sorted(interval_hits.items(), key=str))}; domination cases "
        f"{dict(sorted(case_hits.items()))}",
    )


def test_criterion_10_codec_round_trips():
    rng = random.Random(20260810)

    def sources_for(k):
        return [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 20))) for _ in range(k)]

    def pick(bundles, indices):
        by = {b.encoder_index: b for b in bundles}
        return [by[i] for i in indices]

    plain = coded_a = secure = 0
    for L in range(1, 6):
        sources = sources_for(L)
        lengths = [len(w) for w in sources]
        bundles = smdc_encode(sources)
        for b in bundles:
            assert len(b.payload) == sum(
                -(-n // a) for a, n in enumerate(lengths, 1)
            )
        for size in range(1, L + 1):
            for subset in combinations(range(1, L + 1), size):
                assert smdc_decode(pick(bundles, subset)) == sources[:size]
                plain += 1

        total = sum(lengths)
        cum = 0
        budgets = {0, total, total + 7}
        for n in lengths:
            budgets.add(cum + n // 2)
            cum += n
        for budget in budgets:
            abundles = smdca_encode(sources, budget)
            stored = abundles[0].symbol_counts
            assert len(abundles[0].payload) == sum(stored)
            for b in abundles[1:]:
                assert len(b.payload) == sum(
                    -(-(n - s) // a)
                    for a, (n, s) in enumerate(zip(lengths, stored), 1)
                )
            for size in range(1, L + 1):
                for subset in combinations(range(1, L + 1), size):
                    got = smdca_decode(pick(abundles, (0,) + subset))
                    assert got == sources[:size]
                    coded_a += 1

    for L in range(2, 6):
        for N in range(0, min(3, L)):
            src = sources_for(L - N)
            lengths = [len(w) for w in src]
            keys = bytes(
                rng.randrange(256)
                for _ in range(key_bytes_needed(lengths, N))
            )
            sbundles = ssmdc_encode(src, N, keys)
            for b in sbundles:
                assert len(b.payload) == sum(
                    -(-n // a) for a, n in enumerate(lengths, 1)
                )
            for size in range(N + 1, L + 1):
                for subset in combinations(range(1, L + 1), size):
                    got = ssmdc_decode(pick(sbundles, subset))
                    assert got == src[: size - N]
                    secure += 1
    report(
        10,
        f"round trips: plain {plain}, all-access {coded_a}, secure {secure}; "
        "payload lengths match the symmetric-point formulas",
    )


def test_criterion_11_perfect_secrecy_small_field():
    L = 3
    order = GF16.order
    layers = 0
    for N in (1, 2):
        for alpha in range(1, L - N + 1):
            spec = ramp_spec(L, N, alpha, gf=GF16)
            mat = encode_matrix(spec)
            # one byte position per key vector, through the stream kernel
            keys = list(product(range(order), repeat=N))
            key_streams = [bytes(k[j] for k in keys) for j in range(N)]
            shares_by_message = {}
            for message in product(range(order), repeat=alpha):
                streams = [bytes([m]) * len(keys) for m in message] + key_streams
                shares = GF16.matmul_stream(mat, streams, len(keys))
                shares_by_message[message] = list(zip(*shares))
            for size in range(1, N + 1):
                for observed in combinations(range(L), size):
                    reference = None
                    for message, rows in shares_by_message.items():
                        dist = Counter(
                            tuple(r[p] for p in observed) for r in rows
                        )
                        if reference is None:
                            reference = dist
                        else:
                            assert dist == reference, (N, alpha, observed, message)
            layers += 1
    report(
        11,
        f"GF(16) exhaustive: share distributions on any observed set are "
        f"message independent across {layers} (N, level) layers",
    )
