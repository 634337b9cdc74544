"""Each benchmark oracle accepts the library's answer and rejects a wrong one.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "benchmarks")]

import checks  # noqa: E402
import kernel  # noqa: E402
from smdc import codec, covers, entropy, region  # noqa: E402
from workloads import MemberOp, _member_op  # noqa: E402


def test_closed_form_matches_the_packing_lp():
    rng = random.Random(7)
    for _ in range(60):
        L = rng.randint(1, 6)
        lam = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(L)]
        lam[0] += 1
        for alpha in range(1, L + 1):
            assert checks.f_closed(lam, alpha) == region.f_alpha(lam, alpha).total


def test_codec_oracle_rejects_a_flipped_byte():
    sources = [b"first source", b"second one!", b"third"]
    out = codec.smdc_decode(codec.smdc_encode(sources))
    assert checks.codec_ok(sources, out)
    bad = [out[0], bytes([out[1][0] ^ 1]) + out[1][1:], out[2]]
    assert not checks.codec_ok(sources, bad)
    assert not checks.codec_ok(sources, out[:2])


def test_profile_oracle_rejects_a_wrong_level():
    w = (Fraction(5), Fraction(2), Fraction(1), Fraction(1))
    prof = region.f_profile(w)
    assert checks.profile_ok(w, prof)
    assert not checks.profile_ok(w, prof[:-1] + (prof[-1] + Fraction(1, 7),))


def test_chain_oracle_rejects_a_moved_coefficient():
    w = (Fraction(6), Fraction(2), Fraction(1), Fraction(1))
    chain = covers.yz_chain(w)
    assert checks.chain_ok(w, chain)
    level = chain.levels[2]
    u = next(u for u, c in level.assignment.items() if c > 0)
    changed = dict(level.assignment)
    changed[u] += Fraction(1, 3)
    bad = dataclasses.replace(
        chain, levels={**chain.levels, 2: dataclasses.replace(level, assignment=changed)}
    )
    assert not checks.chain_ok(w, bad)


def test_conditional_oracle_rejects_a_wrong_split():
    w = (Fraction(3), Fraction(2), Fraction(2), Fraction(1))
    assignment = covers.conditional_chain(w, 1)
    assert checks.conditional_ok(w, 1, assignment)
    top = assignment.split[3]
    u = next(iter(top))
    adv = next(iter(top[u]))
    bad_split = {**assignment.split, 3: {**top, u: {adv: top[u][adv] * 2}}}
    assert not checks.conditional_ok(w, 1, dataclasses.replace(assignment, split=bad_split))
    overlap = {**assignment.split, 3: {**top, u: {u: top[u][adv]}}}
    assert not checks.conditional_ok(w, 1, dataclasses.replace(assignment, split=overlap))


def test_member_oracle_rejects_flipped_verdicts_and_bad_evidence():
    rng = random.Random(3)
    for scheme in ("plain", "all-access", "secure"):
        for expected in (True, False):
            q = _member_op(rng, scheme, 4, expected)
            if scheme == "plain":
                v = region.smdc_member(q.rates, q.entropies)
            elif scheme == "all-access":
                v = region.smdca_member(q.r0, q.rates, q.entropies)
            else:
                v = region.ssmdc_member(q.rates, q.entropies, q.num_keys)
            assert checks.member_ok(q, v), (scheme, expected)
            flipped = dataclasses.replace(q, expected=not expected)
            assert not checks.member_ok(flipped, v)
            if expected:
                starved = {a: tuple(x / 2 for x in split) for a, split in v.witness.items()}
                assert not checks.member_ok(q, dataclasses.replace(v, witness=starved))
            else:
                # lam = 0 gives the hyperplane 0 >= 0, which nothing violates
                zero = tuple(Fraction(0) for _ in v.certificate)
                assert not checks.member_ok(q, dataclasses.replace(v, certificate=zero))


def test_member_queries_are_built_with_the_stated_verdict():
    rng = random.Random(11)
    for L in (3, 4, 5):
        for expected in (True, False):
            q = _member_op(rng, "plain", L, expected)
            assert isinstance(q, MemberOp)
            assert region.smdc_member(q.rates, q.entropies).member == expected


def test_entropy_oracle_rejects_a_failed_inequality():
    pmf = entropy.JointPMF([2, 2, 2], {(0, 0, 0): Fraction(1, 2), (1, 1, 1): Fraction(1, 2)})
    reports = [entropy.check_han(pmf, a) for a in (2, 3)]
    assert checks.entropy_ok(reports)
    broken = entropy.InequalityReport("han", 0.0, 1.0, {})
    assert not checks.entropy_ok(reports + [broken])
    assert not checks.entropy_ok([])


def test_kernel_oracle_rejects_a_wrong_product():
    rng = random.Random(5)
    rows, cols, n = 3, 2, 50
    mat, src = rng.randbytes(rows * cols), rng.randbytes(cols * n)
    gf = kernel.bench_gf.GF256
    out = kernel.bench_gf.matmul_python(mat, rows, cols, src, n, gf.exp, gf.log)
    assert kernel.kernel_ok(out, mat, rows, cols, src, n, random.Random(1), gf.poly)
    bad = bytes(b ^ 0x5A for b in out)
    assert not kernel.kernel_ok(bad, mat, rows, cols, src, n, random.Random(1), gf.poly)
    assert kernel.gf_mul_bitwise(0x02, 0x80, gf.poly) == 0x1D
