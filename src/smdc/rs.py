"""Erasure codes on top of the finite fields.

Two encodings share the machinery:

  * coefficient mode: the data word is the coefficient vector of a
    polynomial evaluated at the share points (any k of n shares invert
    a Vandermonde system);
  * ramp mode: the polynomial is pinned to the message values at
    dedicated message points and to fresh uniform key symbols at key
    points, so any k = keys + message shares recover the message while
    any `keys` shares are independent of it.

Both are used only as fixed linear maps: `encode_matrix` and
`decode_matrix` build them, and `GF.matmul_stream` applies them to byte
streams, one symbol per byte position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .gf import GF, GF256


class InsufficientSharesError(ValueError):
    """Fewer distinct shares than the recovery threshold."""


@dataclass(frozen=True)
class CodeSpec:
    """Share count n, recovery threshold k, and the evaluation geometry."""

    n: int
    k: int
    eval_points: tuple[int, ...]
    message_points: tuple[int, ...] = ()
    key_points: tuple[int, ...] = ()
    gf: GF = field(default=GF256, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if len(self.eval_points) != self.n:
            raise ValueError("one evaluation point per share required")
        all_points = self.eval_points + self.message_points + self.key_points
        if len(set(all_points)) != len(all_points):
            raise ValueError("evaluation, message and key points must be disjoint")
        if any(not 0 <= p < self.gf.order for p in all_points):
            raise ValueError("points must be field elements")
        if self.message_points:
            if len(self.message_points) + len(self.key_points) != self.k:
                raise ValueError("ramp mode needs message + key points = k")

    @property
    def is_ramp(self) -> bool:
        return bool(self.message_points)

    @property
    def num_keys(self) -> int:
        return len(self.key_points)


def coefficient_spec(n: int, k: int, gf: GF = GF256) -> CodeSpec:
    if n > gf.order - 1:
        raise ValueError(f"at most {gf.order - 1} shares in GF({gf.order})")
    return CodeSpec(n=n, k=k, eval_points=tuple(range(n)), gf=gf)


def ramp_spec(n: int, num_keys: int, num_message: int, gf: GF = GF256) -> CodeSpec:
    """Message points first, then key points, then one point per share."""
    if num_keys < 0 or num_message < 1:
        raise ValueError("need num_keys >= 0 and num_message >= 1")
    total = num_message + num_keys + n
    if total > gf.order:
        raise ValueError(
            f"point budget {total} exceeds the field order {gf.order}"
        )
    msg = tuple(range(num_message))
    keys = tuple(range(num_message, num_message + num_keys))
    evals = tuple(range(num_message + num_keys, total))
    return CodeSpec(
        n=n,
        k=num_keys + num_message,
        eval_points=evals,
        message_points=msg,
        key_points=keys,
        gf=gf,
    )


# stream-level linear maps ---------------------------------------------------


def encode_matrix(spec: CodeSpec) -> list[list[int]]:
    """n x k map taking a data word (coefficients, or message+keys) to the
    n share symbols."""
    if spec.is_ramp:
        return spec.gf.lagrange_matrix(
            spec.message_points + spec.key_points, spec.eval_points
        )
    return spec.gf.vandermonde(spec.eval_points, spec.k)


def decode_matrix(spec: CodeSpec, positions: Sequence[int]) -> list[list[int]]:
    """Map taking the share symbols at `positions` back to the data word
    (all k coefficients, or just the message symbols in ramp mode)."""
    positions = list(positions)
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate share positions")
    if len(positions) != spec.k:
        raise ValueError(f"need exactly {spec.k} positions")
    if any(not 0 <= p < spec.n for p in positions):
        raise ValueError("share position out of range")
    pts = [spec.eval_points[p] for p in positions]
    if spec.is_ramp:
        return spec.gf.lagrange_matrix(pts, spec.message_points)
    # invert the Vandermonde rows: solve V^T-free via k unit systems
    van = spec.gf.vandermonde(pts, spec.k)
    cols = []
    for j in range(spec.k):
        unit = [1 if i == j else 0 for i in range(spec.k)]
        cols.append(spec.gf.solve(van, unit))
    # cols[j] is the response to share vector e_j; assemble row-major inverse
    return [[cols[j][i] for j in range(spec.k)] for i in range(spec.k)]
