"""Byte-stream codecs for the three storage schemes.

Sources are already-compressed byte strings in priority order.  Source
alpha is padded to alpha-byte words and spread across all L encoders so
that any alpha encoder payloads (any keys+alpha for the secure scheme)
recover it; the all-access variant first stores a greedy uncoded prefix
at encoder 0.  Per-encoder payload for source alpha is ceil(len/alpha)
bytes, the symmetric point of each scheme's rate region.

The three schemes are one superposition code: the plain scheme is the
secure one with no keys, and the all-access scheme is the plain one
after the prefix at encoder 0.  One encoder (`_encode`) and one decoder
(`_decode`) run every layer for all three; the public functions only
fix the scheme, the key count and the stored prefix lengths.

Bundle wire format v2 (little endian):
  magic "SMDC" | version u8 | scheme u8 | L u8 | N u8 | encoder u8 |
  nsources u8 | nsources x (source_length u64, symbol_count u64) |
  payload bytes (symbol_count bytes per source, in source order) |
  crc32 u32 of everything before it
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .gf import GF256
from .rs import InsufficientSharesError, coefficient_spec, decode_matrix, encode_matrix, ramp_spec

MAGIC = b"SMDC"
VERSION = 2
SCHEME_SMDC = 0
SCHEME_SMDCA = 1
SCHEME_SSMDC = 2
MAX_ENCODERS = 200

_SCHEME_NAMES = {SCHEME_SMDC: "plain", SCHEME_SMDCA: "all-access", SCHEME_SSMDC: "secure"}
_HEAD = struct.Struct("<4sBBBBBB")
_LENS = struct.Struct("<QQ")
_CRC = struct.Struct("<I")


class BundleFormatError(ValueError):
    """Malformed or mutually inconsistent share bundles."""


@dataclass(frozen=True)
class ShareBundle:
    scheme: int
    num_encoders: int
    num_keys: int
    encoder_index: int
    source_lengths: tuple[int, ...]
    symbol_counts: tuple[int, ...]
    payload: bytes

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEME_NAMES:
            raise BundleFormatError(f"unknown scheme {self.scheme}")
        if not 1 <= self.num_encoders <= MAX_ENCODERS:
            raise BundleFormatError("encoder count out of range")
        if self.scheme == SCHEME_SSMDC:
            if not 0 <= self.num_keys <= self.num_encoders - 1:
                raise BundleFormatError("key count out of range")
        elif self.num_keys != 0:
            raise BundleFormatError("only the secure scheme carries keys")
        low = 0 if self.scheme == SCHEME_SMDCA else 1
        if not low <= self.encoder_index <= self.num_encoders:
            raise BundleFormatError("encoder index out of range")
        expected_sources = (
            self.num_encoders - self.num_keys
            if self.scheme == SCHEME_SSMDC
            else self.num_encoders
        )
        if len(self.source_lengths) != expected_sources:
            raise BundleFormatError("wrong number of sources")
        if len(self.symbol_counts) != expected_sources:
            raise BundleFormatError("wrong number of symbol counts")
        if any(n < 0 for n in self.source_lengths + self.symbol_counts):
            raise BundleFormatError("negative length")
        if len(self.payload) != sum(self.symbol_counts):
            raise BundleFormatError("payload length does not match symbol counts")

    def to_bytes(self) -> bytes:
        head = _HEAD.pack(
            MAGIC,
            VERSION,
            self.scheme,
            self.num_encoders,
            self.num_keys,
            self.encoder_index,
            len(self.source_lengths),
        ) + b"".join(
            _LENS.pack(n, c)
            for n, c in zip(self.source_lengths, self.symbol_counts)
        )
        crc = zlib.crc32(self.payload, zlib.crc32(head))
        return b"".join((head, self.payload, _CRC.pack(crc)))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ShareBundle":
        if len(blob) < _HEAD.size + _CRC.size:
            raise BundleFormatError("truncated bundle header")
        magic, version, scheme, L, N, enc, nsrc = _HEAD.unpack_from(blob)
        if magic != MAGIC:
            raise BundleFormatError("bad magic")
        if version != VERSION:
            raise BundleFormatError(f"unsupported version {version}")
        end = len(blob) - _CRC.size
        if zlib.crc32(memoryview(blob)[:end]) != _CRC.unpack_from(blob, end)[0]:
            raise BundleFormatError("checksum mismatch: corrupt or truncated bundle")
        off = _HEAD.size
        lengths, counts = [], []
        for _ in range(nsrc):
            if off + _LENS.size > end:
                raise BundleFormatError("truncated length table")
            n, c = _LENS.unpack_from(blob, off)
            off += _LENS.size
            lengths.append(n)
            counts.append(c)
        return cls(scheme, L, N, enc, tuple(lengths), tuple(counts), blob[off:end])

    def source_payload(self, alpha: int) -> bytes:
        """Payload slice for source alpha (1-based)."""
        if not 1 <= alpha <= len(self.source_lengths):
            raise ValueError(f"source must be in 1..{len(self.source_lengths)}, got {alpha}")
        start = sum(self.symbol_counts[: alpha - 1])
        return self.payload[start : start + self.symbol_counts[alpha - 1]]


def words_needed(length: int, alpha: int) -> int:
    return -(-length // alpha)


def key_bytes_needed(source_lengths: Sequence[int], num_keys: int) -> int:
    if num_keys < 0:
        raise ValueError("num_keys must be nonnegative")
    return sum(
        num_keys * words_needed(n, a)
        for a, n in enumerate(source_lengths, 1)
    )


# the layer engine shared by the three schemes ----------------------------------


def _layer_spec(num_encoders: int, num_keys: int, alpha: int):
    """The code of layer alpha: ramp with keys, coefficient mode without."""
    if num_keys:
        return ramp_spec(num_encoders, num_keys, alpha)
    return coefficient_spec(num_encoders, alpha)


def _encode(scheme, sources, num_keys=0, key_stream=b"", stored=None):
    """Bundles 1..L, preceded in the all-access scheme by bundle 0, which
    holds the first stored[alpha - 1] bytes of each source uncoded.  Layer
    alpha codes the rest of source alpha with num_keys fresh key bytes per
    word."""
    L = len(sources) + num_keys
    if not sources or L > MAX_ENCODERS:
        raise ValueError(
            f"need 1..{MAX_ENCODERS} encoders and at least one source, "
            f"got {len(sources)} sources and {num_keys} keys"
        )
    # the top secure layer takes its L - N message, N key and L share
    # points from one field
    if num_keys and 2 * L > GF256.order:
        raise ValueError(
            f"{L} encoders with keys need {2 * L} points, "
            f"more than GF({GF256.order}) has"
        )
    lengths = tuple(len(w) for w in sources)
    stored = stored or [0] * len(sources)
    residuals = [w[s:] for w, s in zip(sources, stored)]
    needed = key_bytes_needed([len(w) for w in residuals], num_keys)
    if len(key_stream) < needed:
        raise ValueError(
            f"insufficient key bytes: need {needed}, got {len(key_stream)}"
        )
    per_encoder = [bytearray() for _ in range(L)]
    counts = []
    key_off = 0
    for alpha, data in enumerate(residuals, 1):
        nwords = words_needed(len(data), alpha)
        counts.append(nwords)
        if nwords == 0:
            continue
        padded = data + bytes(nwords * alpha - len(data))
        streams = [bytes(padded[j::alpha]) for j in range(alpha)]
        block = key_stream[key_off : key_off + num_keys * nwords]
        key_off += len(block)
        streams += [bytes(block[i::num_keys]) for i in range(num_keys)]
        spec = _layer_spec(L, num_keys, alpha)
        outs = GF256.matmul_stream(encode_matrix(spec), streams, nwords)
        for l in range(L):
            per_encoder[l] += outs[l]

    def bundle(index, symbol_counts, payload):
        return ShareBundle(
            scheme, L, num_keys, index, lengths, tuple(symbol_counts), bytes(payload)
        )

    bundles = [bundle(l, counts, per_encoder[l - 1]) for l in range(1, L + 1)]
    if scheme == SCHEME_SMDCA:
        prefix = b"".join(w[:s] for w, s in zip(sources, stored))
        bundles.insert(0, bundle(0, stored, prefix))
    return bundles


def _decode(scheme, bundles):
    """Sources 1..|coded| - N from a consistent bundle set of `scheme`,
    each prefixed with its bundle-0 bytes in the all-access scheme."""
    if not bundles:
        raise ValueError("need at least one bundle")
    first = bundles[0]
    for b in bundles[1:]:
        if (
            b.scheme != first.scheme
            or b.num_encoders != first.num_encoders
            or b.num_keys != first.num_keys
            or b.source_lengths != first.source_lengths
        ):
            raise BundleFormatError("bundles disagree on scheme parameters")
    if first.scheme != scheme:
        raise BundleFormatError(f"not a {_SCHEME_NAMES[scheme]}-scheme bundle set")
    coded = {b.encoder_index: b for b in bundles}
    if len(coded) != len(bundles):
        raise BundleFormatError("duplicate encoder indices")
    # only the all-access scheme admits index 0
    zero = coded.pop(0, None)
    if scheme == SCHEME_SMDCA and zero is None:
        raise ValueError("the all-access bundle (encoder 0) is required")
    L, N = first.num_encoders, first.num_keys
    if len(coded) <= N:
        raise InsufficientSharesError(
            f"{len(coded)} coded bundles, need more than the {N} of the secrecy threshold"
        )
    lengths = first.source_lengths
    stored = zero.symbol_counts if zero else (0,) * len(lengths)
    if any(s > n for s, n in zip(stored, lengths)):
        raise BundleFormatError("stored prefix longer than its source")
    residuals = [n - s for n, s in zip(lengths, stored)]
    counts = tuple(words_needed(n, a) for a, n in enumerate(residuals, 1))
    if any(b.symbol_counts != counts for b in coded.values()):
        raise BundleFormatError("symbol counts disagree with the source lengths")
    chosen = sorted(coded)
    out = []
    for alpha in range(1, len(coded) - N + 1):
        nwords = counts[alpha - 1]
        data = bytearray(nwords * alpha)
        if nwords:
            ids = chosen[: N + alpha]
            mat = decode_matrix(_layer_spec(L, N, alpha), [l - 1 for l in ids])
            outs = GF256.matmul_stream(
                mat, [coded[l].source_payload(alpha) for l in ids], nwords
            )
            for j in range(alpha):
                data[j::alpha] = outs[j]
        prefix = zero.source_payload(alpha) if zero else b""
        out.append(prefix + bytes(data[: residuals[alpha - 1]]))
    return out


# the three schemes ---------------------------------------------------------------


def smdc_encode(sources: Sequence[bytes]) -> list[ShareBundle]:
    """One bundle per encoder; any |U| of them recover sources 1..|U|."""
    return _encode(SCHEME_SMDC, sources)


def smdc_decode(bundles: Sequence[ShareBundle]) -> list[bytes]:
    """Recover sources 1..|U| from the available bundles."""
    return _decode(SCHEME_SMDC, bundles)


def smdca_encode(sources: Sequence[bytes], r0_budget: int) -> list[ShareBundle]:
    """Bundle 0 takes a greedy uncoded prefix; the rest is superposition
    coded across encoders 1..L.  Returns bundles indexed 0..L."""
    if r0_budget < 0:
        raise ValueError("r0 budget must be nonnegative")
    before = accumulate((len(w) for w in sources), initial=0)
    stored = [min(len(w), max(0, r0_budget - b)) for w, b in zip(sources, before)]
    return _encode(SCHEME_SMDCA, sources, stored=stored)


def smdca_decode(bundles: Sequence[ShareBundle]) -> list[bytes]:
    """Recover sources 1..|U| from bundle 0 plus the available bundles."""
    return _decode(SCHEME_SMDCA, bundles)


def ssmdc_encode(
    sources: Sequence[bytes], num_keys: int, key_stream: bytes
) -> list[ShareBundle]:
    """Superposition ramp coding: any num_keys bundles are independent of
    the sources, any num_keys+alpha recover sources 1..alpha."""
    return _encode(SCHEME_SSMDC, sources, num_keys, key_stream)


def ssmdc_decode(bundles: Sequence[ShareBundle]) -> list[bytes]:
    """Recover sources 1..|U|-N; below the threshold nothing is recoverable
    by design."""
    return _decode(SCHEME_SSMDC, bundles)
