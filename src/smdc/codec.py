"""Byte-stream codecs for the three storage schemes.

Sources are already-compressed byte strings in priority order.  Source
alpha is padded to alpha-byte words and spread across all L encoders so
that any alpha encoder payloads (any keys+alpha for the secure scheme)
recover it; the all-access variant first stores a greedy uncoded prefix
at encoder 0.  Per-encoder payload for source alpha is ceil(len/alpha)
bytes, the symmetric point of each scheme's rate region.

Bundle wire format (little endian):
  magic "SMDC" | version u8 | scheme u8 | L u8 | N u8 | encoder u8 |
  nsources u8 | nsources x (source_length u64, symbol_count u64) |
  payload bytes (symbol_count bytes per source, in source order)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from .gf import GF256
from .rs import InsufficientSharesError, coefficient_spec, decode_matrix, encode_matrix, ramp_spec

MAGIC = b"SMDC"
VERSION = 1
SCHEME_SMDC = 0
SCHEME_SMDCA = 1
SCHEME_SSMDC = 2
MAX_ENCODERS = 200

_HEAD = struct.Struct("<4sBBBBBB")
_LENS = struct.Struct("<QQ")


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
        if self.scheme not in (SCHEME_SMDC, SCHEME_SMDCA, SCHEME_SSMDC):
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
        )
        lens = b"".join(
            _LENS.pack(n, c)
            for n, c in zip(self.source_lengths, self.symbol_counts)
        )
        return head + lens + self.payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ShareBundle":
        if len(blob) < _HEAD.size:
            raise BundleFormatError("truncated bundle header")
        magic, version, scheme, L, N, enc, nsrc = _HEAD.unpack_from(blob)
        if magic != MAGIC:
            raise BundleFormatError("bad magic")
        if version != VERSION:
            raise BundleFormatError(f"unsupported version {version}")
        off = _HEAD.size
        lengths, counts = [], []
        for _ in range(nsrc):
            if off + _LENS.size > len(blob):
                raise BundleFormatError("truncated length table")
            n, c = _LENS.unpack_from(blob, off)
            off += _LENS.size
            lengths.append(n)
            counts.append(c)
        payload = blob[off:]
        try:
            return cls(
                scheme=scheme,
                num_encoders=L,
                num_keys=N,
                encoder_index=enc,
                source_lengths=tuple(lengths),
                symbol_counts=tuple(counts),
                payload=payload,
            )
        except BundleFormatError:
            raise
        except ValueError as err:
            raise BundleFormatError(str(err)) from err

    def source_payload(self, alpha: int) -> bytes:
        """Payload slice for source alpha (1-based)."""
        start = sum(self.symbol_counts[: alpha - 1])
        return self.payload[start : start + self.symbol_counts[alpha - 1]]


def words_needed(length: int, alpha: int) -> int:
    return -(-length // alpha)


def key_bytes_needed(source_lengths: Sequence[int], num_keys: int) -> int:
    return sum(
        num_keys * words_needed(n, a)
        for a, n in enumerate(source_lengths, 1)
    )


# shared layer engine --------------------------------------------------------


def _encode_layers(payloads, num_encoders, num_keys, key_stream):
    """Per-encoder coded streams for every source layer.

    Returns (per-encoder bytearrays, per-source symbol counts).  Consumes
    num_keys fresh key bytes per word of the secure layers.
    """
    per_encoder = [bytearray() for _ in range(num_encoders)]
    counts = []
    key_off = 0
    for alpha, data in enumerate(payloads, 1):
        nwords = words_needed(len(data), alpha)
        counts.append(nwords)
        if nwords == 0:
            continue
        padded = data + bytes(nwords * alpha - len(data))
        streams = [bytes(padded[j::alpha]) for j in range(alpha)]
        if num_keys:
            need = num_keys * nwords
            block = key_stream[key_off : key_off + need]
            if len(block) < need:
                raise ValueError("insufficient key bytes for the secure layers")
            key_off += need
            streams += [bytes(block[i::num_keys]) for i in range(num_keys)]
            spec = ramp_spec(num_encoders, num_keys, alpha)
        else:
            spec = coefficient_spec(num_encoders, alpha)
        outs = GF256.matmul_stream(encode_matrix(spec), streams, nwords)
        for l in range(num_encoders):
            per_encoder[l] += outs[l]
    return per_encoder, counts


def _decode_layer(chunks, encoder_ids, alpha, num_encoders, num_keys, length):
    """Recover one source from its per-encoder symbol streams.

    chunks maps encoder index (1-based) to that encoder's stream for this
    source; the lowest keys+alpha indices are used.
    """
    if length == 0:
        return b""
    nwords = words_needed(length, alpha)
    k = num_keys + alpha
    chosen = sorted(encoder_ids)[:k]
    if num_keys:
        spec = ramp_spec(num_encoders, num_keys, alpha)
    else:
        spec = coefficient_spec(num_encoders, alpha)
    mat = decode_matrix(spec, [l - 1 for l in chosen])
    outs = GF256.matmul_stream(mat, [chunks[l] for l in chosen], nwords)
    data = bytearray(nwords * alpha)
    for j in range(alpha):
        data[j::alpha] = outs[j]
    return bytes(data[:length])


def _check_consistent(bundles) -> ShareBundle:
    first = bundles[0]
    for b in bundles[1:]:
        if (
            b.scheme != first.scheme
            or b.num_encoders != first.num_encoders
            or b.num_keys != first.num_keys
            or b.source_lengths != first.source_lengths
        ):
            raise BundleFormatError("bundles disagree on scheme parameters")
    ids = [b.encoder_index for b in bundles]
    if len(set(ids)) != len(ids):
        raise BundleFormatError("duplicate encoder indices")
    return first


# plain scheme ---------------------------------------------------------------


def smdc_encode(sources: Sequence[bytes]) -> list[ShareBundle]:
    """One bundle per encoder; any |U| of them recover sources 1..|U|."""
    L = len(sources)
    if not 1 <= L <= MAX_ENCODERS:
        raise ValueError(f"need 1..{MAX_ENCODERS} sources, got {L}")
    lengths = tuple(len(w) for w in sources)
    per_encoder, counts = _encode_layers(sources, L, 0, b"")
    return [
        ShareBundle(
            scheme=SCHEME_SMDC,
            num_encoders=L,
            num_keys=0,
            encoder_index=l,
            source_lengths=lengths,
            symbol_counts=tuple(counts),
            payload=bytes(per_encoder[l - 1]),
        )
        for l in range(1, L + 1)
    ]


def smdc_decode(bundles: Sequence[ShareBundle]) -> list[bytes]:
    """Recover sources 1..|U| from the available bundles."""
    if not bundles:
        raise ValueError("need at least one bundle")
    first = _check_consistent(bundles)
    if first.scheme != SCHEME_SMDC:
        raise BundleFormatError("not a plain-scheme bundle set")
    L = first.num_encoders
    for b in bundles:
        for alpha in range(1, L + 1):
            if b.symbol_counts[alpha - 1] != words_needed(
                b.source_lengths[alpha - 1], alpha
            ):
                raise BundleFormatError("symbol counts disagree with lengths")
    available = {b.encoder_index: b for b in bundles}
    out = []
    for alpha in range(1, len(bundles) + 1):
        chunks = {l: b.source_payload(alpha) for l, b in available.items()}
        out.append(
            _decode_layer(
                chunks, available, alpha, L, 0, first.source_lengths[alpha - 1]
            )
        )
    return out


# all-access scheme ----------------------------------------------------------


def smdca_encode(sources: Sequence[bytes], r0_budget: int) -> list[ShareBundle]:
    """Bundle 0 takes a greedy uncoded prefix; the rest is superposition
    coded across encoders 1..L.  Returns bundles indexed 0..L."""
    if r0_budget < 0:
        raise ValueError("r0 budget must be nonnegative")
    L = len(sources)
    if not 1 <= L <= MAX_ENCODERS:
        raise ValueError(f"need 1..{MAX_ENCODERS} sources, got {L}")
    lengths = tuple(len(w) for w in sources)
    stored = _greedy_prefix(lengths, r0_budget)
    residual_sources = [w[s:] for w, s in zip(sources, stored)]
    per_encoder, counts = _encode_layers(residual_sources, L, 0, b"")
    bundle0 = ShareBundle(
        scheme=SCHEME_SMDCA,
        num_encoders=L,
        num_keys=0,
        encoder_index=0,
        source_lengths=lengths,
        symbol_counts=tuple(stored),
        payload=b"".join(w[:s] for w, s in zip(sources, stored)),
    )
    rest = [
        ShareBundle(
            scheme=SCHEME_SMDCA,
            num_encoders=L,
            num_keys=0,
            encoder_index=l,
            source_lengths=lengths,
            symbol_counts=tuple(counts),
            payload=bytes(per_encoder[l - 1]),
        )
        for l in range(1, L + 1)
    ]
    return [bundle0] + rest


def _greedy_prefix(lengths: Sequence[int], budget: int) -> list[int]:
    stored = []
    left = budget
    for n in lengths:
        take = min(left, n)
        stored.append(take)
        left -= take
    return stored


def smdca_decode(bundles: Sequence[ShareBundle]) -> list[bytes]:
    """Recover sources 1..|U| from bundle 0 plus the available bundles."""
    if not bundles:
        raise ValueError("need at least one bundle")
    first = _check_consistent(bundles)
    if first.scheme != SCHEME_SMDCA:
        raise BundleFormatError("not an all-access bundle set")
    by_index = {b.encoder_index: b for b in bundles}
    bundle0 = by_index.pop(0, None)
    if bundle0 is None:
        raise ValueError("the all-access bundle (encoder 0) is required")
    if not by_index:
        raise ValueError("need at least one randomly accessible bundle")
    L = first.num_encoders
    stored = bundle0.symbol_counts
    for b in by_index.values():
        for alpha in range(1, L + 1):
            residual = b.source_lengths[alpha - 1] - stored[alpha - 1]
            if b.symbol_counts[alpha - 1] != words_needed(residual, alpha):
                raise BundleFormatError("symbol counts disagree with the prefix split")
    out = []
    for alpha in range(1, len(by_index) + 1):
        length = first.source_lengths[alpha - 1]
        prefix = bundle0.source_payload(alpha)
        residual_len = length - stored[alpha - 1]
        chunks = {l: b.source_payload(alpha) for l, b in by_index.items()}
        suffix = _decode_layer(chunks, by_index, alpha, L, 0, residual_len)
        out.append(prefix + suffix)
    return out


# secure scheme --------------------------------------------------------------


def ssmdc_encode(
    sources: Sequence[bytes], num_keys: int, key_stream: bytes
) -> list[ShareBundle]:
    """Superposition ramp coding: any num_keys bundles are independent of
    the sources, any num_keys+alpha recover sources 1..alpha."""
    if num_keys < 0:
        raise ValueError("num_keys must be nonnegative")
    L = len(sources) + num_keys
    if not 1 <= L <= MAX_ENCODERS:
        raise ValueError(f"need 1..{MAX_ENCODERS} encoders, got {L}")
    if not sources:
        raise ValueError("need at least one source")
    # the top secure layer takes its L - N message, N key and L share
    # points from one field
    if num_keys and 2 * L > GF256.order:
        raise ValueError(
            f"{L} encoders with keys need {2 * L} points, "
            f"more than GF({GF256.order}) has"
        )
    lengths = tuple(len(w) for w in sources)
    needed = key_bytes_needed(lengths, num_keys)
    if len(key_stream) < needed:
        raise ValueError(
            f"insufficient key bytes: need {needed}, got {len(key_stream)}"
        )
    per_encoder, counts = _encode_layers(sources, L, num_keys, key_stream)
    return [
        ShareBundle(
            scheme=SCHEME_SSMDC,
            num_encoders=L,
            num_keys=num_keys,
            encoder_index=l,
            source_lengths=lengths,
            symbol_counts=tuple(counts),
            payload=bytes(per_encoder[l - 1]),
        )
        for l in range(1, L + 1)
    ]


def ssmdc_decode(bundles: Sequence[ShareBundle]) -> list[bytes]:
    """Recover sources 1..|U|-N; below the threshold nothing is recoverable
    by design."""
    if not bundles:
        raise ValueError("need at least one bundle")
    first = _check_consistent(bundles)
    if first.scheme != SCHEME_SSMDC:
        raise BundleFormatError("not a secure-scheme bundle set")
    L = first.num_encoders
    N = first.num_keys
    if len(bundles) <= N:
        raise InsufficientSharesError(
            f"{len(bundles)} bundles cannot exceed the secrecy threshold {N}"
        )
    for b in bundles:
        for alpha in range(1, L - N + 1):
            if b.symbol_counts[alpha - 1] != words_needed(
                b.source_lengths[alpha - 1], alpha
            ):
                raise BundleFormatError("symbol counts disagree with lengths")
    available = {b.encoder_index: b for b in bundles}
    out = []
    for alpha in range(1, len(bundles) - N + 1):
        chunks = {l: b.source_payload(alpha) for l, b in available.items()}
        out.append(
            _decode_layer(
                chunks, available, alpha, L, N, first.source_lengths[alpha - 1]
            )
        )
    return out
