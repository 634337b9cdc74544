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
    "member plain L=2": "df6bf1759f468963afaf12ad530bebb60cfd81358cbe1d7ffa4a08ddf4db9356",
    "member plain L=3": "4f98ab7112d55bde155216a5f1a339a2aa6d52210477990d5b20f0c6a7e81237",
    "member plain L=4": "7de748028c7c072e49e0d22304b689cc9cd118ab8e6126064bbbb53ec9c72f07",
    "member plain L=5": "6ef554625e6f49ea004247ad983b5bad9b0d385226c982fdb928672ab6a92333",
    "member plain L=6": "e062e006b193587a6bb3d9e185ba0a5ea4106acdd8a5483239e36e15979efc95",
    "member plain L=7": "5e05c586dde02901af6568878eaf31fa362754c075f81f7476c75182a8d683f0",
    "member plain L=8": "dc8b8f6ade36740b0235d165cdfe7ed9206d7b606f580b97b5d31d7ea07ca3a1",
    "member all-access L=2": "22462368487bf6bb6a523d5bdf74f79db050b16f8499892180ea66a0d3bf145d",
    "member all-access L=3": "639fecc35d81aa057119869ddece6dfa8849708b419077636e841473dfb88e0b",
    "member all-access L=4": "d690b8dc9f8e64eeafe7333587f1e14a5499203b7eeb6895088f88cacf2b2210",
    "member all-access L=5": "e93bf569efcf400e35cc3669ae0e42b864a769dafe1846eb1ba2667ac2ba6ab7",
    "member all-access L=6": "60363c9f8bf4c6a3c74cf8098c1d577edd2e529002f3cbead31c49fa2a6f6bc5",
    "member all-access L=7": "410e31fe1c763bb0a9b4bb60861d2c931ded9792bfb893930e4b5b22ad46875d",
    "member all-access L=8": "e37ce4fe07000d62d4ba4c2c70c98385de386b1dab4883a0eef2ca03317f6fa8",
    "member secure L=2": "e1ffc50f655858517f2db039d7a2b23cae6805b3cc998a71e0d64d0864a84e0f",
    "member secure L=3": "3a7c39f05d6d6d32179578db30b89d12656da065ef71c232ba0251bfe3de237a",
    "member secure L=4": "5badc4a8fb0cf6230b679e232cf3b7267fb6dd92b85e9c03412bff58ad368cfe",
    "member secure L=5": "0d8de08a86fa3b38d86f15ae66c839c000067148c0fa741340cfa2df1a737687",
    "member secure L=6": "e270de7d8e14cb2ae8fd453f4bd92b6f9d4298f7bfe6216cb0bd543579c98f98",
    "member secure L=7": "fd3c0ae6c2d84925f4fb702eeaac354e040a23dc98b03ff81b0acbb36d15fc92",
    "member secure L=8": "a249104871ff1879611c9826dd7cb6071b59603ea63685f8edb311714dc91e1d",
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
