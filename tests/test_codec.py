import hashlib
import random
from itertools import combinations

import pytest

import smdc.codec as codec
from smdc.codec import (
    BundleFormatError,
    ShareBundle,
    key_bytes_needed,
    smdc_decode,
    smdc_encode,
    smdca_decode,
    smdca_encode,
    ssmdc_decode,
    ssmdc_encode,
)
from smdc.region import greedy_allocation
from smdc.rs import InsufficientSharesError
from smdc.subsets import windows

# every encode and decode below runs once per importable stream kernel
pytestmark = pytest.mark.usefixtures("kernel")


def make_sources(rng, lengths):
    return [bytes(rng.randrange(256) for _ in range(n)) for n in lengths]


def pick(bundles, indices):
    by_index = {b.encoder_index: b for b in bundles}
    return [by_index[i] for i in indices]


class TestWireFormat:
    def test_round_trip(self):
        rng = random.Random(0)
        bundles = smdc_encode(make_sources(rng, [5, 7, 3]))
        for b in bundles:
            back = ShareBundle.from_bytes(b.to_bytes())
            assert back == b

    def test_bad_magic(self):
        blob = smdc_encode([b"ab"])[0].to_bytes()
        with pytest.raises(BundleFormatError):
            ShareBundle.from_bytes(b"XXXX" + blob[4:])

    def test_bad_version(self):
        blob = bytearray(smdc_encode([b"ab"])[0].to_bytes())
        blob[4] = 9
        with pytest.raises(BundleFormatError):
            ShareBundle.from_bytes(bytes(blob))

    def test_source_payload_range(self):
        # 0 would wrap round to the last source, 4 would index past it
        bundle = smdc_encode([b"abc", b"defg", b"hi"])[0]
        assert bundle.source_payload(3) != b""
        for alpha in (0, 4):
            with pytest.raises(ValueError, match=f"source must be in 1..3, got {alpha}"):
                bundle.source_payload(alpha)

    def test_truncation(self):
        blob = smdc_encode([b"abcd", b"efgh"])[0].to_bytes()
        with pytest.raises(BundleFormatError):
            ShareBundle.from_bytes(blob[:3])
        with pytest.raises(BundleFormatError):
            ShareBundle.from_bytes(blob[:-1])

    def test_every_one_byte_corruption_detected(self):
        rng = random.Random(15)
        sources = make_sources(rng, [6, 5, 4])
        keys = bytes(key_bytes_needed([6, 5], 1))
        for bundle in (
            smdc_encode(sources)[0],
            smdca_encode(sources, 4)[0],
            ssmdc_encode(sources[:2], 1, keys)[2],
        ):
            blob = bundle.to_bytes()
            # header, length table, payload and checksum alike
            for pos in range(len(blob)):
                bad = bytearray(blob)
                bad[pos] ^= 0xFF
                with pytest.raises(BundleFormatError):
                    ShareBundle.from_bytes(bytes(bad))

    def test_version_1_rejected(self):
        b = smdc_encode([b"ab"])[0]
        v1 = (
            codec._HEAD.pack(codec.MAGIC, 1, b.scheme, 1, 0, 1, 1)
            + codec._LENS.pack(2, 2)
            + b.payload
        )
        with pytest.raises(BundleFormatError, match="unsupported version 1"):
            ShareBundle.from_bytes(v1)

    def test_scheme_consistency_enforced(self):
        with pytest.raises(BundleFormatError):
            ShareBundle(
                scheme=0,
                num_encoders=2,
                num_keys=1,
                encoder_index=1,
                source_lengths=(1, 1),
                symbol_counts=(1, 1),
                payload=b"ab",
            )
        with pytest.raises(BundleFormatError):
            ShareBundle(
                scheme=0,
                num_encoders=2,
                num_keys=0,
                encoder_index=0,
                source_lengths=(1, 1),
                symbol_counts=(1, 1),
                payload=b"ab",
            )


class TestPlainScheme:
    def test_payload_length_formula(self):
        rng = random.Random(1)
        bundles = smdc_encode(make_sources(rng, [12, 12, 12]))
        for b in bundles:
            assert len(b.payload) == 12 + 6 + 4
            assert b.symbol_counts == (12, 6, 4)

    def test_replication_when_only_first_source(self):
        w1 = b"top secret"
        bundles = smdc_encode([w1, b"", b""])
        for b in bundles:
            assert b.payload == w1

    def test_total_storage_near_min_sum_rate(self):
        lengths = [30, 30, 30]
        bundles = smdc_encode(make_sources(random.Random(2), lengths))
        total = sum(len(b.payload) for b in bundles)
        assert total == 3 * (30 + 15 + 10)

    def test_exhaustive_round_trips(self):
        rng = random.Random(3)
        for L in range(1, 5):
            sources = make_sources(rng, [rng.randrange(0, 24) for _ in range(L)])
            bundles = smdc_encode(sources)
            for size in range(1, L + 1):
                for subset in combinations(range(1, L + 1), size):
                    got = smdc_decode(pick(bundles, subset))
                    assert got == sources[:size]

    def test_window_access(self):
        rng = random.Random(4)
        L = 5
        sources = make_sources(rng, [9, 8, 7, 6, 5])
        bundles = smdc_encode(sources)
        for a in range(1, L + 1):
            for w in windows(L, a):
                got = smdc_decode(pick(bundles, w.members))
                assert got == sources[:a]

    def test_deterministic(self):
        sources = [b"abc", b"defg"]
        one = [b.to_bytes() for b in smdc_encode(sources)]
        two = [b.to_bytes() for b in smdc_encode(sources)]
        assert one == two

    def test_mixed_bundles_rejected(self):
        a = smdc_encode([b"ab", b"cd"])
        b = smdc_encode([b"ab", b"cdef"])
        with pytest.raises(BundleFormatError):
            smdc_decode([a[0], b[1]])
        with pytest.raises(BundleFormatError):
            smdc_decode([a[0], a[0]])

    def test_empty_access_rejected(self):
        with pytest.raises(ValueError):
            smdc_decode([])

    def test_large_encoder_count(self):
        # codec paths avoid subset enumeration, so they take L well past
        # the combinatorics cap
        rng = random.Random(21)
        L = 30
        sources = [b""] * L
        sources[0] = bytes(rng.randrange(256) for _ in range(11))
        sources[7] = bytes(rng.randrange(256) for _ in range(16))
        bundles = smdc_encode(sources)
        got = smdc_decode(pick(bundles, range(1, 9)))
        assert got == sources[:8]

    def test_encoder_budget_enforced(self):
        with pytest.raises(ValueError):
            smdc_encode([b""] * 201)


class TestAllAccessScheme:
    def test_split_matches_greedy_allocation(self):
        rng = random.Random(5)
        for _ in range(20):
            L = rng.randint(1, 4)
            lengths = [rng.randrange(0, 12) for _ in range(L)]
            budget = rng.randrange(0, sum(lengths) + 4)
            bundles = smdca_encode(make_sources(rng, lengths), budget)
            alloc = greedy_allocation(budget, lengths) if any(lengths) else None
            stored = bundles[0].symbol_counts
            if alloc is not None:
                assert stored == tuple(int(x) for x in alloc.stored_at_zero)
                residual = tuple(
                    n - s for n, s in zip(lengths, stored)
                )
                assert residual == tuple(int(x) for x in alloc.residual)

    def test_zero_budget_matches_plain_payloads(self):
        rng = random.Random(6)
        sources = make_sources(rng, [8, 6, 5])
        with_zero = smdca_encode(sources, 0)
        plain = smdc_encode(sources)
        assert with_zero[0].payload == b""
        for a, p in zip(with_zero[1:], plain):
            assert a.payload == p.payload
            assert a.symbol_counts == p.symbol_counts

    def test_budget_covers_everything(self):
        rng = random.Random(7)
        sources = make_sources(rng, [4, 4])
        bundles = smdca_encode(sources, 100)
        assert bundles[0].payload == b"".join(sources)
        for b in bundles[1:]:
            assert b.payload == b""
        assert smdca_decode([bundles[0], bundles[1]]) == sources[:1]

    def test_known_split(self):
        rng = random.Random(8)
        sources = make_sources(rng, [8, 8])
        bundles = smdca_encode(sources, 4)
        assert bundles[0].payload == sources[0][:4]
        # residual lengths 4 and 8 coded at levels 1 and 2
        for b in bundles[1:]:
            assert b.symbol_counts == (4, 4)

    def test_exhaustive_round_trips(self):
        rng = random.Random(9)
        for L in range(1, 5):
            lengths = [rng.randrange(0, 16) for _ in range(L)]
            sources = make_sources(rng, lengths)
            total = sum(lengths)
            budgets = {0, total // 3, (2 * total) // 3, total, total + 5}
            for budget in budgets:
                bundles = smdca_encode(sources, budget)
                for size in range(1, L + 1):
                    for subset in combinations(range(1, L + 1), size):
                        got = smdca_decode(pick(bundles, (0,) + subset))
                        assert got == sources[:size]

    def test_prefix_longer_than_source_rejected(self):
        # counts that agree with ceil((2 - 3) / 2) = 0 would otherwise
        # hand back the 3 stored bytes as a 2-byte source
        def bundle(index, counts, payload):
            return ShareBundle(1, 2, 0, index, (4, 2), counts, payload)

        coded = [bundle(l, (0, 0), b"") for l in (1, 2)]
        with pytest.raises(BundleFormatError, match="prefix"):
            smdca_decode([bundle(0, (4, 3), bytes(7))] + coded)

    def test_missing_all_access_bundle(self):
        bundles = smdca_encode([b"abcd", b"ef"], 2)
        with pytest.raises(ValueError):
            smdca_decode(bundles[1:])


class TestSecureScheme:
    def test_key_accounting(self):
        assert key_bytes_needed([4, 4], 1) == 4 + 2
        assert key_bytes_needed([4, 4], 2) == 2 * (4 + 2)
        assert key_bytes_needed([0, 5], 3) == 3 * 3

    @pytest.mark.parametrize("sources", [[b"ab"], [b"ab", b"cd", b"ef"]])
    def test_negative_key_count(self, sources):
        # refused by the key accounting, before any key byte is needed
        for call in (
            lambda: key_bytes_needed([len(s) for s in sources], -1),
            lambda: ssmdc_encode(sources, -1, b""),
        ):
            with pytest.raises(ValueError, match="num_keys must be nonnegative"):
                call()

    def test_payload_length_formula(self):
        rng = random.Random(10)
        sources = make_sources(rng, [4, 4])
        keys = bytes(rng.randrange(256) for _ in range(key_bytes_needed([4, 4], 1)))
        bundles = ssmdc_encode(sources, 1, keys)
        for b in bundles:
            assert len(b.payload) == 4 + 2

    def test_no_keys_byte_identical_to_plain(self):
        rng = random.Random(11)
        sources = make_sources(rng, [6, 5, 4])
        secure = ssmdc_encode(sources, 0, b"")
        plain = smdc_encode(sources)
        for s, p in zip(secure, plain):
            assert s.payload == p.payload
            assert s.symbol_counts == p.symbol_counts
            assert s.scheme != p.scheme

    def test_exhaustive_round_trips(self):
        rng = random.Random(12)
        for L in range(2, 5):
            for N in range(0, min(3, L)):
                nsources = L - N
                lengths = [rng.randrange(0, 14) for _ in range(nsources)]
                sources = make_sources(rng, lengths)
                keys = bytes(
                    rng.randrange(256)
                    for _ in range(key_bytes_needed(lengths, N))
                )
                bundles = ssmdc_encode(sources, N, keys)
                for size in range(N + 1, L + 1):
                    for subset in combinations(range(1, L + 1), size):
                        got = ssmdc_decode(pick(bundles, subset))
                        assert got == sources[: size - N]

    def test_below_threshold_errors(self):
        rng = random.Random(13)
        sources = make_sources(rng, [5, 4])
        keys = bytes(
            rng.randrange(256) for _ in range(key_bytes_needed([5, 4], 1))
        )
        bundles = ssmdc_encode(sources, 1, keys)
        with pytest.raises(InsufficientSharesError):
            ssmdc_decode(bundles[:1])

    def test_point_budget_checked_before_encoding(self, monkeypatch):
        built = []
        monkeypatch.setattr(codec, "encode_matrix", built.append)
        keys = bytes(key_bytes_needed([1] * 127, 2))
        with pytest.raises(ValueError, match="GF\\(256\\)"):
            ssmdc_encode([b"x"] * 127, 2, keys)
        assert built == []

    def test_insufficient_key_bytes(self):
        with pytest.raises(ValueError):
            ssmdc_encode([b"abcd"], 1, b"xy")

    def test_deterministic_given_keys(self):
        rng = random.Random(14)
        sources = make_sources(rng, [7, 3])
        keys = bytes(
            rng.randrange(256) for _ in range(key_bytes_needed([7, 3], 1))
        )
        one = [b.to_bytes() for b in ssmdc_encode(sources, 1, keys)]
        two = [b.to_bytes() for b in ssmdc_encode(sources, 1, keys)]
        assert one == two


def _golden_inputs(case):
    """Seeded sources (and key bytes) for one golden case."""
    scheme, L, N = case
    rng = random.Random(f"golden {scheme} L={L} N={N}")
    lengths = [rng.randrange(0, 48) for _ in range(L - N)]
    sources = make_sources(rng, lengths)
    keys = bytes(rng.randrange(256) for _ in range(key_bytes_needed(lengths, N)))
    return sources, keys


GOLDEN = {
    # (scheme, encoders L, keys N): sha256 of every bundle's to_bytes()
    ("plain", 5, 0): "93eea5b10174f1607ec650412fd7d2537c5921d4daef9f25251cda69e700ad7a",
    ("all-access", 5, 0): "2e08a858b0d4d9caa06019492fdf4636ee15a11d9c38c674593c0c306d7f8791",
    ("secure", 5, 1): "1a597abf63d6716737adbac3f3809ce3acfef0edd8f2cd5627d7c77c94dfb225",
    ("secure", 32, 2): "0af11a839c5e5eb6d016ab4a1a8cfe987a69a3926aa654f592bcd6f5b49d259f",
}


class TestGoldenBundles:
    """The v2 wire bytes of fixed encodes, recorded when the Lagrange
    matrices still came from the product formula: a change to any code
    matrix, the layer layout or the format shows up here, on every
    kernel backend."""

    @pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c[0]}-L{c[1]}-N{c[2]}")
    def test_digest(self, case):
        scheme, L, N = case
        sources, keys = _golden_inputs(case)
        if scheme == "plain":
            bundles = smdc_encode(sources)
        elif scheme == "all-access":
            bundles = smdca_encode(sources, sum(len(w) for w in sources) // 2)
        else:
            bundles = ssmdc_encode(sources, N, keys)
        digest = hashlib.sha256(b"".join(b.to_bytes() for b in bundles))
        assert digest.hexdigest() == GOLDEN[case]
