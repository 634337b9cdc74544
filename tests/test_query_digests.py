"""Entropies, inequality reports, membership verdicts and level profiles
pinned by their sha256 digests.

Each digest is of the text that one seeded group of queries gives: the
`float.hex` of every subset entropy of a pmf and of both sides of every
Han, Yeung-Zhang and conditional Yeung-Zhang report on it; the `repr` of
membership verdicts of the three schemes and of `greedy_allocation`
results; the `repr` of `f_profile` and of `f_alpha` packings.  A change
to the pmf store, the LP rows or the profile that moves a single bit of
any answer fails here.

The pmfs have alphabets of 1 to 9 symbols and at most 256 outcomes, with
their tables listed in shuffled order and some masses zero, so that the
order of first appearance that fixes every entropy's summation order is
not the lexicographic one.  The weight vectors have zeros, ties and a
dominant weight.
"""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from smdc.covers import conditional_chain, yz_chain
from smdc.entropy import JointPMF, check_conditional_yz, check_han, check_yz
from smdc.region import (
    f_alpha,
    f_profile,
    greedy_allocation,
    smdc_member,
    smdca_member,
    ssmdc_member,
)

F = Fraction

PMF_SIZES = [
    (1,), (9,), (2, 1), (3, 7), (9, 9, 3), (6, 6, 6), (5, 1, 4, 2), (4, 4, 4, 4),
    (8, 1, 8, 4), (7, 5, 3, 2), (2, 3, 2, 3, 2), (1, 1, 2, 1, 3, 1),
    (2, 2, 2, 2, 2, 2, 2, 2),
]


def _pmf(sizes):
    """A seeded table over the alphabets `sizes`, in shuffled order, about a
    third of its masses zero and the rest over mixed denominators."""
    rng = random.Random("pmf " + ",".join(map(str, sizes)))
    outcomes = list(product(*(range(k) for k in sizes)))
    rng.shuffle(outcomes)
    weights = [0 if rng.random() < 0.3 else rng.randint(1, 60) for _ in outcomes]
    weights[0] += 1
    total = sum(weights)
    return JointPMF(sizes, {o: F(w, total) for o, w in zip(outcomes, weights)})


def _entropy_lines(sizes):
    pmf = _pmf(sizes)
    L = len(sizes)
    for mask in range(1, 2**L):
        u = [m for m in range(1, L + 1) if mask >> (m - 1) & 1]
        yield f"H{u} {pmf.subset_entropy(u).hex()}"
    # the checks on a fresh pmf, so that they fill its cache themselves
    pmf = _pmf(sizes)
    rng = random.Random("chain " + ",".join(map(str, sizes)))
    w = tuple(F(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(L))
    reports = [check_han(pmf, a) for a in range(2, L + 1)]
    if L >= 2:
        chain = yz_chain(w)
        reports += [check_yz(pmf, chain, a) for a in range(2, L + 1)]
    for n in (1, 2):
        if L - n >= 2:
            assignment = conditional_chain(w, n)
            reports += [check_conditional_yz(pmf, assignment, a) for a in range(2, L - n + 1)]
    for r in reports:
        yield f"{r.name} {r.details} {r.lhs.hex()} {r.rhs.hex()}"


def _member_queries(scheme, L):
    """Members above the superposition point, non-members below it or below
    H_1 at encoder 1, and rates drawn around it with ties and zeros."""
    rng = random.Random(f"member {scheme} {L}")
    for trial in range(8):
        n = rng.randint(1, L - 1) if scheme == "secure" else 0
        h = [F(0) if rng.random() < 0.2 else F(rng.randint(1, 12), rng.randint(1, 4))
             for _ in range(L - n)]
        point = sum((x / a for a, x in enumerate(h, 1)), F(0))
        r0 = None
        if scheme == "all-access":
            r0 = rng.choice((F(0), F(rng.randint(1, 8), rng.randint(1, 4)), sum(h) + 1))
        kind = trial % 4
        if kind == 0:
            rates = [point + F(rng.randint(0, 4), 8) for _ in range(L)]
        elif kind == 1:
            rates = [point * F(rng.randint(60, 95), 100) for _ in range(L)]
        elif kind == 2:
            rates = [h[0] * F(rng.randint(10, 95), 100)]
            rates += [point * F(rng.randint(100, 200), 100) for _ in range(L - 1)]
        else:
            rates = []
            for _ in range(L):
                if rates and rng.random() < 0.4:
                    rates.append(rng.choice(rates))
                else:
                    rates.append(point * F(rng.randint(50, 150), 100) + F(rng.randint(0, 2), 4))
        yield rates, h, n, r0


def _member_lines(scheme, L):
    for rates, h, n, r0 in _member_queries(scheme, L):
        if scheme == "plain":
            yield repr(smdc_member(rates, h))
        elif scheme == "secure":
            yield repr(ssmdc_member(rates, h, n))
        else:
            yield repr(smdca_member(r0, rates, h))


def _greedy_lines():
    rng = random.Random("greedy")
    for L in range(1, 9):
        h = [F(0) if rng.random() < 0.25 else F(rng.randint(1, 9), rng.randint(1, 3))
             for _ in range(L)]
        prefix = [sum(h[:a], F(0)) for a in range(L + 1)]
        budgets = [F(0), sum(h, F(0)), sum(h, F(0)) + F(1, 7), rng.choice(prefix),
                   F(rng.randint(0, 20), rng.randint(1, 5))]
        for r0 in budgets:
            yield repr(greedy_allocation(r0, h))


def _weights(L):
    """Zeros, ties, a dominant weight and seeded fractions at L entries."""
    rng = random.Random(f"profile {L}")
    zeros = [F(0) if rng.random() < 0.4 else F(rng.randint(1, 9), rng.randint(1, 4))
             for _ in range(L)]
    ties = [F(rng.choice((1, 2, 2, 3))) for _ in range(L)]
    dominant = [F(rng.randint(1, 3)) for _ in range(L)]
    dominant[rng.randrange(L)] = F(rng.randint(10, 40 * L))
    mixed = [F(rng.randint(0, 30), rng.randint(1, 6)) for _ in range(L)]
    return [[F(0)] * L, [F(1)] * L, zeros, ties, dominant, mixed]


def _profile_lines(L):
    for lam in _weights(L):
        yield repr(f_profile(lam))
        if L <= 10:
            for a in range(1, L + 1):
                yield repr(f_alpha(lam, a).assignment)


def _cases():
    for sizes in PMF_SIZES:
        yield f"entropy {','.join(map(str, sizes))}", lambda s=sizes: _entropy_lines(s)
    for scheme in ("plain", "all-access", "secure"):
        for L in range(2, 9):
            yield f"member {scheme} L={L}", lambda s=scheme, L=L: _member_lines(s, L)
    yield "greedy", _greedy_lines
    for L in range(1, 25):
        yield f"profile L={L}", lambda L=L: _profile_lines(L)


CASES = list(_cases())

DIGESTS = {
    "entropy 1": "39ec3081d49664359e80a75865ad8914088748ccfd879d00953a5c70af0b654e",
    "entropy 9": "119920a36c5e0429162266b99cea74650cd6b216a96ec4a0aa84df2ebecbadc8",
    "entropy 2,1": "1ef4119d6defc84bb6bef1117fac5cb164215d9c12232f54bfec8069b7d93a39",
    "entropy 3,7": "59c12f3ef3d2ee946bdeb03b9c30cba9bcf08ee75f271cdfa09f5f659a31a28d",
    "entropy 9,9,3": "3c827d12e68bd9c2d033d51ec2c6019cf40303835c4dc0c4dbe4dc692690140b",
    "entropy 6,6,6": "c0426235546622fdc6a3c8d685541a9079cca2601ad992c97e91ce306b149d27",
    "entropy 5,1,4,2": "655551a4b5a55aebf9088e5c2a3aa187439f715112425e8a76550a4c96421e97",
    "entropy 4,4,4,4": "ed158064d8f7d164346aa45644af63c93adc7203ff118a898f48f2805456faa9",
    "entropy 8,1,8,4": "f315c2a75429d2e8ce97076c4b2d3269c4362be8b37bab4789b1b5dfb81b4409",
    "entropy 7,5,3,2": "d2606f0f4b4d69e3df702047c92d5c015333d5341f4bdc0d20bbfee71f5630fe",
    "entropy 2,3,2,3,2": "7a1f719c172e53576f4ba7e46529049434f0ae41c692ae278ba5bc16e387b5bd",
    "entropy 1,1,2,1,3,1": "d6e89ae81ddccefdbc55352085fe26eec7e8956771d46bb8018fb656c479ff84",
    "entropy 2,2,2,2,2,2,2,2": "117aeb97264bbe5aa82d0b7307a9763f7837fc45826f7aec5d799e0d868370c7",
    "member plain L=2": "b20c6716bcbcfe6b3b4db2f98a359dbbe2052c887837deb97a6f05cf460d12af",
    "member plain L=3": "2f2c1bdfb1d440921abcabb14d193a19f8435eaca51af1c009072e05c7423f56",
    "member plain L=4": "5434578a18acef66211137837a2c8520a8ebc03540e2c40c571ee7d1f367fb7a",
    "member plain L=5": "7f549fe327172907148b4efdc2f97a9b0c2f1f211d5a8d341f1a6e13a492f8b6",
    "member plain L=6": "7f3f7398b30ab73dece6729f7ec8ae2650039932fcbe44ef34de00746ef9afb6",
    "member plain L=7": "7178c2914079647b8de9b743bf8f67843e6b85fb71f7f3e8e282125f33e70a49",
    "member plain L=8": "988798a685c22f5cf3d3bf38a889f3fc8b3362d536965b83ac145260ec82cf03",
    "member all-access L=2": "71230aa129b977ad212ce6b9c2448a1460092b54f247355ede669113fd9b7788",
    "member all-access L=3": "7ceadbd577f849f21816ede8b055112babb9e63bbba62e4b277bc2942220b794",
    "member all-access L=4": "d690b8dc9f8e64eeafe7333587f1e14a5499203b7eeb6895088f88cacf2b2210",
    "member all-access L=5": "e93bf569efcf400e35cc3669ae0e42b864a769dafe1846eb1ba2667ac2ba6ab7",
    "member all-access L=6": "186d0972cf34049a11cadea3835f1303f9485535f107540319a30be624462620",
    "member all-access L=7": "e3f4fcc61afc1af167f9dcaf70bcfbd501353f987e21d253b54a4bab66dba6d8",
    "member all-access L=8": "b9bb695673b77a8bff22c0dc250bb1bfb9e2608b88f1d1a2ba86ae1801fcd50b",
    "member secure L=2": "e1ffc50f655858517f2db039d7a2b23cae6805b3cc998a71e0d64d0864a84e0f",
    "member secure L=3": "aae8542435a003b2bb275755bfbdd0f3bf10a7223a71ded5f598547ab564ab75",
    "member secure L=4": "eaedac791dc0c2a44cbffb268f76398bb1fd5cdb60e3e238aeaf1ef0c05e4edb",
    "member secure L=5": "fc53cbc995cfe84d00f4d3930480051580192cf02e9627975e24be77127c90ed",
    "member secure L=6": "e025479f7949e15fe16c581d4cc7a3c9ecce1dfa47e591ecee01a18bbae2e745",
    "member secure L=7": "69324c7e2beaa1c6b84fd4b2c41334edeb280aaadfb44a7f4ed708d1f88899e8",
    "member secure L=8": "d5789bd5f032dc1de58f1abf8c20dabf2272a4b99e537c5f19eb6b6b6b4f530c",
    "greedy": "ae94358e3a0844440216ffd88e3de508977b994f3bdb279a38d49233fae1fc75",
    "profile L=1": "18cb6edce69ea6adf66bc03df60ee87ebd98ec08c9bc3e290585c74d534c815a",
    "profile L=2": "78b2f89a32d661aca111378e2c82493220fe1e97e73b1ba36a6500f8d3f6ce74",
    "profile L=3": "0d25051fdc0d9364c7c557a109d0fc3ed305305614e8f67192ff98dfcfccf84f",
    "profile L=4": "23538231d4b65fbf55fab2ac36f92120a9d1737a7057a0a30c4f28c9312d3957",
    "profile L=5": "ee26b3c64b687e736b2ffcd3eb695eacc6d02448fa2c0fce98810cd9989fb56f",
    "profile L=6": "5f5fa73a3fb5160d548ea2e178bbc79eb3633bf5d38f250753d89e546293d340",
    "profile L=7": "0eff9c58c017bef43d83b9657f69e90d9ebf6f790aa3fd062a532289010b776d",
    "profile L=8": "5bb6994ebca1934a5c078305b766cb713cfac74b41f126830860c9d35d15ab1a",
    "profile L=9": "7f120c03f2c84d34e677f66708c3b5b3650bccec9ba7ef285698bcac483463cc",
    "profile L=10": "d4850a1402548e4607bbefe77d9b0fed07a28bb2823b334a029bb4ecb8b9e51f",
    "profile L=11": "6bb152ee108c176a19ce3df567cbc805b2805ff94120a2c2bdba121c521ab9df",
    "profile L=12": "9b3c5e48579b48a31f942b8564fdacfeffff96f6a0301e68a6a23c9bdd1ff1af",
    "profile L=13": "53b7f6f58d5f66c0f029f499e312173d5a20718f67b606a2f7f53fe1e6008d69",
    "profile L=14": "7c40e22f4947f4723faded373626ed45a0bd0a9e490d63a092b42ca2b14db8f3",
    "profile L=15": "637af9a68cd5700d7d978fb981b533eafb80b4f1119c4f89bb36d3000258a2b2",
    "profile L=16": "7407acf2abb76bc3b0e67f670ef016bd6ceb598966bc14142e73bfadfc080a86",
    "profile L=17": "3604f0041ed1a4b7e8f9b7096a745583364646995913138bd44b4f31b4bae3f6",
    "profile L=18": "4ac48e85cb32b4aa6460e0ecc02f2ae9eab0b85dc38780f0be15ad972ea016a6",
    "profile L=19": "6fe48f2d9ffb4c0c7fdfbc4c3de838001079e86f491b964db849ecf319760bc0",
    "profile L=20": "647c92b6a9c76c886b1647066878426f5d544cb9e6ce875439b8246cf9366ff3",
    "profile L=21": "e9f7c2f19c3f04d6d5767b727525e352da6e69106a5626c07ca030a67fd96440",
    "profile L=22": "5a17bc2c1b6b5f01ec723732c0d74a60df3f99b40899fc5cebe4074c99fb8cdf",
    "profile L=23": "8383682e83940646ec7f49994f69c06c3bc01048269cf91a76c108e0d707a6f7",
    "profile L=24": "3c6281699e9f7c31705d06fc13328f9f92b70ea1003a431a661044c5d41dcb85",
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines()).encode()).hexdigest()


def test_every_input_is_pinned():
    assert [label for label, _ in CASES] == list(DIGESTS)


@pytest.mark.parametrize("label,lines", CASES, ids=[label for label, _ in CASES])
def test_digest(label, lines):
    assert _digest(lines) == DIGESTS[label]
