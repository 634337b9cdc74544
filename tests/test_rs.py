import random
from collections import Counter
from itertools import combinations, product

import pytest

from smdc.gf import GF256
from smdc.rs import (
    CodeSpec,
    InsufficientSharesError,
    coefficient_spec,
    decode_matrix,
    encode_matrix,
    ramp_spec,
)

from oracles import GF16, poly_eval


def encode(spec, *words):
    """Share streams of data words laid side by side, one word per byte
    position, through `encode_matrix` and the stream kernel."""
    streams = [bytes(col) for col in zip(*words)]
    return spec.gf.matmul_stream(encode_matrix(spec), streams, len(words))


def decode(spec, shares):
    """Data streams (message streams in ramp mode) back from a mapping
    position -> share stream, through `decode_matrix`."""
    positions = sorted(shares)
    n = len(shares[positions[0]])
    return spec.gf.matmul_stream(
        decode_matrix(spec, positions), [shares[p] for p in positions], n
    )


def streams_of(*words):
    return [bytes(col) for col in zip(*words)]


class TestCoefficientCode:
    def test_k_one_replicates(self):
        spec = coefficient_spec(5, 1)
        assert encode(spec, [7], [9]) == [bytes([7, 9])] * 5

    def test_k_equals_n_round_trips(self):
        rng = random.Random(1)
        spec = coefficient_spec(4, 4)
        words = [[rng.randrange(256) for _ in range(4)] for _ in range(3)]
        shares = encode(spec, *words)
        assert decode(spec, dict(enumerate(shares))) == streams_of(*words)

    def test_known_evaluation(self):
        # p(x) = 1 + x at points 1, 2, 3
        spec = CodeSpec(n=3, k=2, eval_points=(1, 2, 3))
        assert encode(spec, [1, 1]) == [bytes([0]), bytes([3]), bytes([2])]

    def test_every_subset_recovers(self):
        rng = random.Random(2)
        for n in range(1, 9):
            for k in range(1, n + 1):
                spec = coefficient_spec(n, k)
                words = [[rng.randrange(256) for _ in range(k)] for _ in range(3)]
                shares = encode(spec, *words)
                for subset in combinations(range(n), k):
                    got = decode(spec, {p: shares[p] for p in subset})
                    assert got == streams_of(*words)

    def test_share_count_errors(self):
        spec = coefficient_spec(4, 2)
        with pytest.raises(ValueError):
            decode_matrix(spec, [0])
        with pytest.raises(ValueError):
            decode_matrix(spec, [0, 0])
        with pytest.raises(ValueError):
            decode_matrix(spec, [0, 1, 2])
        for bad in ([-1, 0], [0, 4]):
            with pytest.raises(ValueError):
                decode_matrix(spec, bad)
        # the codec's threshold error is still a data error
        assert issubclass(InsufficientSharesError, ValueError)

    def test_decode_matrix_inverts(self):
        rng = random.Random(3)
        spec = coefficient_spec(6, 3)
        data = [rng.randrange(256) for _ in range(3)]
        shares = [s[0] for s in encode(spec, data)]
        for subset in combinations(range(6), 3):
            mat = decode_matrix(spec, subset)
            vals = [shares[p] for p in subset]
            got = [0] * 3
            for i in range(3):
                acc = 0
                for j in range(3):
                    acc ^= GF256.mul(mat[i][j], vals[j])
                got[i] = acc
            assert got == data

    def test_encode_matrix_matches_horner(self):
        rng = random.Random(4)
        spec = coefficient_spec(5, 3)
        data = [rng.randrange(256) for _ in range(3)]
        direct = [poly_eval(data, x, 0x11D, 256) for x in spec.eval_points]
        assert [s[0] for s in encode(spec, data)] == direct


class TestRampCode:
    def test_no_keys_is_plain_mds(self):
        rng = random.Random(5)
        spec = ramp_spec(5, 0, 2)
        msg = [rng.randrange(256), rng.randrange(256)]
        shares = encode(spec, msg)
        for subset in combinations(range(5), 2):
            assert decode(spec, {p: shares[p] for p in subset}) == streams_of(msg)

    def test_threshold_scheme_recovers(self):
        # 3 shares, 1 key, 1 message symbol: a (3, 2) threshold scheme;
        # one byte position per (secret, key) pair
        spec = ramp_spec(3, 1, 1, gf=GF16)
        words = list(product(range(16), range(16)))
        shares = encode(spec, *words)
        secrets = bytes(secret for secret, _ in words)
        for subset in combinations(range(3), 2):
            assert decode(spec, {p: shares[p] for p in subset}) == [secrets]

    def test_single_share_uniform(self):
        # each single share is uniform over the key, whatever the secret
        spec = ramp_spec(3, 1, 1, gf=GF16)
        for secret in (0, 7, 15):
            shares = encode(spec, *[(secret, key) for key in range(16)])
            for pos in range(3):
                assert set(Counter(shares[pos]).values()) == {1}

    def test_recovery_all_small_shapes(self):
        rng = random.Random(6)
        for L in range(2, 6):
            for n_keys in range(0, L):
                for a in range(1, L - n_keys + 1):
                    spec = ramp_spec(L, n_keys, a)
                    words = [
                        [rng.randrange(256) for _ in range(a + n_keys)]
                        for _ in range(3)
                    ]
                    shares = encode(spec, *words)
                    msg = streams_of(*words)[:a]
                    for subset in combinations(range(L), n_keys + a):
                        assert decode(spec, {p: shares[p] for p in subset}) == msg

    def test_exhaustive_secrecy_small_field(self):
        # joint share distribution on any N encoders is message-independent
        for n_keys, a in ((1, 1), (1, 2), (2, 1)):
            L = 3
            spec = ramp_spec(L, n_keys, a, gf=GF16)
            msgs = list(product(range(16), repeat=a))[:6]
            keys = list(product(range(16), repeat=n_keys))
            share_sets = [encode(spec, *[msg + k for k in keys]) for msg in msgs]
            for size in range(1, n_keys + 1):
                for subset in combinations(range(L), size):
                    dists = [
                        Counter(zip(*(shares[p] for p in subset)))
                        for shares in share_sets
                    ]
                    assert all(d == dists[0] for d in dists[1:])

    def test_point_budget(self):
        with pytest.raises(ValueError):
            ramp_spec(14, 1, 2, gf=GF16)

    def test_key_count_enforced(self):
        # the encode map takes message and key streams together
        spec = ramp_spec(4, 2, 1)
        assert len(encode_matrix(spec)[0]) == 3
        with pytest.raises(ValueError):
            encode(spec, [1, 2])

    def test_spec_point_disjointness(self):
        with pytest.raises(ValueError):
            CodeSpec(n=2, k=2, eval_points=(0, 1), message_points=(1,), key_points=(5,))
