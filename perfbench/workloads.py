"""Seeded workloads: decks of operations and how to run one operation.

An operation is generated from the workload seed alone; the library sees
only the generated inputs.  Operations come in decks that hold a fixed,
stratified mix (every scheme and size class once), shuffled by the
seed, so that runs on different seeds measure the same mix and differ
only in the sizes, data and orders the seed picks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from time import perf_counter

import checks

CODEC_SCHEMES = (("plain", 0), ("all-access", 0), ("secure", 1), ("secure", 2))


def _rng(workload: str, seed: int, stream) -> random.Random:
    """Independent seeded stream per deck index or per named purpose."""
    return random.Random(f"{workload}/{seed}/{stream}")


def _not_multiple(n, alpha):
    """Bump a source length off the multiples of its word size alpha."""
    return n + 1 if alpha > 1 and n % alpha == 0 else n


def _shuffled(rng, ops):
    """Label each operation with its slot in the deck's fixed mix, then
    shuffle the order; a slot's operations cost alike from deck to deck."""
    for slot, op in enumerate(ops):
        op.slot = slot
    rng.shuffle(ops)
    return ops


@dataclass
class Outcome:
    """Per-kind timings of one operation and whether its oracle passed."""

    kind: str
    times: dict
    ok: bool
    source_bytes: int = 0
    recovered_bytes: int = 0
    slot: int = -1


# codec round trips ----------------------------------------------------------


@dataclass
class CodecOp:
    scheme: str
    num_keys: int
    sources: list
    survivors: list  # positions in the encoder's bundle list
    r0_budget: int = 0
    key_stream: bytes = b""

    kind = "codec"


def _codec_op(rng, scheme, num_keys, lengths, keep, r0_budget):
    """Fresh bytes, key stream and surviving encoders for one planned slot."""
    sources = [rng.randbytes(n) for n in lengths]
    op = CodecOp(scheme, num_keys, sources, [], r0_budget)
    L = len(sources)
    if scheme == "secure":
        words = sum(-(-n // a) for a, n in enumerate(lengths, 1))
        op.key_stream = rng.randbytes(num_keys * words)
    if scheme == "all-access":
        op.survivors = [0] + sorted(rng.sample(range(1, L + 1), keep))
    else:
        op.survivors = sorted(rng.sample(range(L + num_keys), keep))
    return op


class CodecWorkload:
    """Encode, serialise, parse and decode, with a byte-for-byte check.

    Every deck runs the same (scheme, L, failures) combinations.  The seed
    plans each slot once per run: source lengths (drawn without
    replacement from an even grid over the length range, so every seed
    moves the same bytes), survivor count and all-access budget.  Each
    deck then draws fresh bytes, keys and surviving encoders.
    """

    def __init__(self, name, combos, length):
        self.name = name
        self.combos = combos  # (scheme, keys N, sources L, failures or None)
        self.length = length  # (low, high) bytes per source
        self.plan = None

    def prepare(self, lib, seed):
        rng = _rng(self.name, seed, "plan")
        count = sum(L for _, _, L, _ in self.combos)
        low, high = self.length
        grid = [low + (high - low) * (2 * i + 1) // (2 * count) for i in range(count)]
        rng.shuffle(grid)
        self.plan = []
        for scheme, n, L, failures in self.combos:
            lengths = [_not_multiple(grid.pop(), a) for a in range(1, L + 1)]
            pool = L if scheme == "all-access" else L + n
            keep = rng.randint(n + 1, pool) if failures is None else pool - failures
            r0 = rng.randint(0, sum(lengths) // 2) if scheme == "all-access" else 0
            self.plan.append((scheme, n, lengths, keep, r0))

    def deck(self, seed, index, lib):
        rng = _rng(self.name, seed, index)
        return _shuffled(rng, [_codec_op(rng, *slot) for slot in self.plan])

    def warmup(self, seed, lib):
        rng = _rng(self.name, seed, "warmup")
        lengths = [_not_multiple(rng.randint(512, 1024), a) for a in range(1, 5)]
        return [
            _codec_op(rng, s, n, lengths, 4 if s == "all-access" else 4 + n, 0)
            for s, n in CODEC_SCHEMES
        ]

    @staticmethod
    def run(op, lib, tr):
        codec = lib.codec
        t0 = perf_counter()
        with tr.span("codec.encode"):
            if op.scheme == "plain":
                bundles = codec.smdc_encode(op.sources)
            elif op.scheme == "all-access":
                bundles = codec.smdca_encode(op.sources, op.r0_budget)
            else:
                bundles = codec.ssmdc_encode(op.sources, op.num_keys, op.key_stream)
        with tr.span("codec.bundle.to_bytes"):
            blobs = [b.to_bytes() for b in bundles]
        t1 = perf_counter()
        with tr.span("codec.bundle.from_bytes"):
            parsed = [codec.ShareBundle.from_bytes(blobs[i]) for i in op.survivors]
        with tr.span("codec.decode"):
            if op.scheme == "plain":
                out = codec.smdc_decode(parsed)
            elif op.scheme == "all-access":
                out = codec.smdca_decode(parsed)
            else:
                out = codec.ssmdc_decode(parsed)
        t2 = perf_counter()
        recovered = len(op.survivors) - (1 if op.scheme == "all-access" else op.num_keys)
        expected = op.sources[:recovered]
        source_bytes = sum(map(len, op.sources))
        tr.add("codec.bundle.bytes", sum(map(len, blobs)))
        tr.add("codec.source_bytes", source_bytes)
        return Outcome(
            "codec",
            {"encode": t1 - t0, "decode": t2 - t1},
            checks.codec_ok(expected, out),
            source_bytes,
            sum(map(len, expected)),
        )


# exact region queries -------------------------------------------------------


@dataclass
class MemberOp:
    scheme: str  # "plain", "all-access" or "secure"
    rates: tuple
    entropies: tuple
    expected: bool
    r0: Fraction = Fraction(0)
    num_keys: int = 0

    kind = "member"


@dataclass
class ProfileOp:
    weights: tuple
    kind = "profile"


@dataclass
class ChainOp:
    weights: tuple
    num_keys: int  # 0 builds yz_chain, otherwise conditional_chain
    kind = "chain"


@dataclass
class EntropyOp:
    pmf: object
    chain: object
    conditional: object
    kind = "entropy"


def _frac(rng, top=12, den=4):
    return Fraction(rng.randint(1, top), rng.randint(1, den))


def _weights(rng, L):
    """Positive weights; sometimes one dominates so every chain case fires."""
    w = [_frac(rng, 20, 3) for _ in range(L)]
    if rng.random() < 0.4:
        w[rng.randrange(L)] *= rng.randint(2, 3 * L)
    return tuple(w)


def _split(rng, total, parts):
    """Positive rationals summing exactly to total."""
    cuts = [rng.randint(1, 64) for _ in range(parts)]
    s = sum(cuts)
    return [total * Fraction(c, s) for c in cuts]


def _member_op(rng, scheme, L, member):
    """A query whose verdict is known: members dominate the superposition
    point r_l = sum_alpha H_alpha / alpha; non-members violate the
    all-ones hyperplane or the lambda = e_1 hyperplane strictly."""
    n = rng.randint(1, min(2, L - 1)) if scheme == "secure" else 0
    h = tuple(_frac(rng) for _ in range(L - n))
    point = sum((e / a for a, e in enumerate(h, 1)), Fraction(0))
    r0 = Fraction(0)
    if member:
        rates = [point + rng.choice((0, _frac(rng, 4, 8))) for _ in range(L)]
        if scheme == "all-access":
            r0 = _frac(rng, 4, 8)
    elif rng.random() < 0.5:
        # all ones: sum r (+ L * r0) >= sum_alpha (L / alpha) H_alpha
        bound = sum((Fraction(L, a) * e for a, e in enumerate(h, 1)), Fraction(0))
        total = bound * Fraction(rng.randint(50, 95), 100)
        if scheme == "all-access":
            share = Fraction(rng.randint(0, 30), 100)
            r0 = total * share / L
            total -= total * share
        rates = _split(rng, total, L)
    else:
        # lambda = e_1: r_1 (+ r0) >= H_1
        below = h[0] * Fraction(rng.randint(10, 95), 100)
        if scheme == "all-access":
            r0 = below * Fraction(rng.randint(0, 50), 100)
            below -= r0
        rates = [below] + [point * Fraction(rng.randint(100, 200), 100) for _ in range(L - 1)]
    return MemberOp(scheme, tuple(rates), h, member, r0, n)


def _pmf(rng, lib, n):
    """A joint pmf on n variables with alphabets of 2-3 and rational masses."""
    sizes = [rng.randint(2, 3) for _ in range(n)]
    cells = {o: rng.randint(0, 256) for o in product(*(range(k) for k in sizes))}
    cells[(0,) * n] += 1
    total = sum(cells.values())
    table = {o: Fraction(c, total) for o, c in cells.items() if c}
    return lib.entropy.JointPMF(sizes, table)


class RegionWorkload:
    """Membership, level profiles, chain builds and entropy checks."""

    name = "region-exact"
    MEMBER_L = (3, 4, 5)
    PROFILE_L = (6, 7, 8, 9, 10)
    CHAIN_L = (4, 5, 6, 7)
    ENTROPY_N = (4, 4, 4, 4, 5, 5, 5, 5)

    def __init__(self):
        self.structures = None

    def prepare(self, lib, seed):
        """Chains for the entropy checks, built once per set-up from seeded
        weights; they are inputs to the entropy layer, not timed work."""
        rng = _rng(self.name, seed, "plan")
        self.structures = {}
        for n in sorted(set(self.ENTROPY_N)):
            w = tuple(Fraction(rng.randint(1, 9)) for _ in range(n))
            self.structures[n] = (
                lib.covers.yz_chain(w),
                lib.covers.conditional_chain(w, 1),
            )

    def deck(self, seed, index, lib):
        rng = _rng(self.name, seed, index)
        ops = []
        for scheme in ("plain", "all-access", "secure"):
            for L in self.MEMBER_L:
                ops.append(_member_op(rng, scheme, L, True))
                ops.append(_member_op(rng, scheme, L, False))
        ops += [ProfileOp(_weights(rng, L)) for L in self.PROFILE_L]
        for L in self.CHAIN_L:
            ops.append(ChainOp(_weights(rng, L), 0))
            ops.append(ChainOp(_weights(rng, L), rng.randint(1, 2)))
        for n in self.ENTROPY_N:
            ops.append(EntropyOp(_pmf(rng, lib, n), *self.structures[n]))
        return _shuffled(rng, ops)

    def warmup(self, seed, lib):
        rng = _rng(self.name, seed, "warmup")
        n = min(self.ENTROPY_N)
        return [
            _member_op(rng, "plain", 3, False),
            ProfileOp(_weights(rng, 6)),
            ChainOp(_weights(rng, 4), 1),
            EntropyOp(_pmf(rng, lib, n), *self.structures[n]),
        ]

    @staticmethod
    def run(op, lib, tr):
        region, covers, entropy = lib.region, lib.covers, lib.entropy
        t0 = perf_counter()
        if op.kind == "member":
            with tr.span("region.member"):
                if op.scheme == "plain":
                    v = region.smdc_member(op.rates, op.entropies)
                elif op.scheme == "all-access":
                    v = region.smdca_member(op.r0, op.rates, op.entropies)
                else:
                    v = region.ssmdc_member(op.rates, op.entropies, op.num_keys)
            t1 = perf_counter()
            tr.add("region.member.queries", 1)
            tr.add("region.member.nonmembers", 0 if v.member else 1)
            ok = checks.member_ok(op, v)
        elif op.kind == "profile":
            with tr.span("region.f_profile"):
                prof = region.f_profile(op.weights)
            t1 = perf_counter()
            ok = checks.profile_ok(op.weights, prof)
        elif op.kind == "chain":
            if op.num_keys:
                built = covers.conditional_chain(op.weights, op.num_keys)
                t1 = perf_counter()
                ok = checks.conditional_ok(op.weights, op.num_keys, built)
            else:
                built = covers.yz_chain(op.weights)
                t1 = perf_counter()
                ok = checks.chain_ok(op.weights, built)
        else:
            L = op.pmf.variable_count
            with tr.span("entropy.checks"):
                reports = [entropy.check_han(op.pmf, a) for a in range(2, L + 1)]
                reports += [entropy.check_yz(op.pmf, op.chain, a) for a in range(2, L + 1)]
                reports += [
                    entropy.check_conditional_yz(op.pmf, op.conditional, a)
                    for a in range(2, L)
                ]
            t1 = perf_counter()
            tr.add("entropy.states_total", prod(op.pmf.alphabet_sizes))
            tr.low("entropy.min_slack", min(r.slack for r in reports))
            ok = checks.entropy_ok(reports)
        return Outcome(op.kind, {op.kind: t1 - t0}, ok)


WORKLOADS = {
    # k <= 8 keeps matrix construction negligible: the byte kernel dominates
    "codec-bulk": lambda: CodecWorkload(
        "codec-bulk",
        [(s, n, L, None) for s, n in CODEC_SCHEMES for L in (4, 5, 6, 7, 8)],
        (4096, 32768),
    ),
    # k up to 34 on ~1 KB sources: decode-matrix construction dominates
    "codec-wide": lambda: CodecWorkload(
        "codec-wide",
        [
            (s, n, L, (i + j) % 4)
            for i, (s, n) in enumerate(CODEC_SCHEMES)
            for j, L in enumerate((16, 24, 32))
        ],
        (768, 1280),
    ),
    "region-exact": RegionWorkload,
}
