"""Subset families over the encoder index set.

Everything downstream (rate regions, coefficient chains, entropy checks,
codecs) works with fixed-size subsets of {1..L}, cyclic sliding windows,
and the parent/child structure between adjacent subset levels.  Full
enumeration is capped at L=24; paths that never enumerate whole levels
may accept larger ground sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

MAX_ENUMERATION_GROUND = 24


@dataclass(frozen=True)
class EncoderSet:
    """An immutable subset of the encoder indices {1..ground_size}.

    Members are kept strictly increasing; a bit mask gives O(1)
    membership.  The empty set is allowed (it appears as a conditioning
    set).
    """

    members: tuple[int, ...]
    ground_size: int

    def __post_init__(self) -> None:
        if self.ground_size < 1:
            raise ValueError("ground_size must be at least 1")
        prev = 0
        for m in self.members:
            if not isinstance(m, int):
                raise ValueError(f"encoder index {m!r} is not an integer")
            if m <= prev:
                raise ValueError("members must be strictly increasing")
            prev = m
        if prev > self.ground_size:
            raise ValueError(
                f"member {prev} outside ground set of size {self.ground_size}"
            )

    @classmethod
    def of(cls, members, ground_size: int) -> "EncoderSet":
        return cls(tuple(sorted(set(int(m) for m in members))), ground_size)

    @cached_property
    def mask(self) -> int:
        m = 0
        for e in self.members:
            m |= 1 << e
        return m

    def __contains__(self, index: int) -> bool:
        return 0 <= index <= self.ground_size and bool(self.mask >> index & 1)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"

    def complement(self) -> "EncoderSet":
        missing = tuple(
            e for e in range(1, self.ground_size + 1) if e not in self
        )
        return EncoderSet(missing, self.ground_size)

    def children(self) -> list["EncoderSet"]:
        """The |U| subsets of U with one element removed, in lex order."""
        if len(self.members) < 2:
            raise ValueError("children require a set of size at least 2")
        return [
            EncoderSet(c, self.ground_size)
            for c in combinations(self.members, len(self.members) - 1)
        ]

    def parents(self) -> list["EncoderSet"]:
        """The L - |V| supersets of V with one element added, in lex order."""
        if len(self.members) >= self.ground_size:
            raise ValueError("parents require a proper subset of the ground set")
        out = []
        for e in range(1, self.ground_size + 1):
            if e not in self:
                out.append(
                    EncoderSet(tuple(sorted(self.members + (e,))), self.ground_size)
                )
        return out


def _check_ground(ground_size: int) -> None:
    if not 1 <= ground_size <= MAX_ENUMERATION_GROUND:
        raise ValueError(
            f"ground size must be in 1..{MAX_ENUMERATION_GROUND}, got {ground_size}"
        )


def subsets_of_size(ground_size: int, size: int) -> list[EncoderSet]:
    """All subsets of {1..ground_size} with the given size, lex ordered."""
    _check_ground(ground_size)
    if not 1 <= size <= ground_size:
        raise ValueError(f"size must be in 1..{ground_size}, got {size}")
    return [
        EncoderSet(c, ground_size)
        for c in combinations(range(1, ground_size + 1), size)
    ]


def wrap_index(index: int, ground_size: int) -> int:
    """1-based index reduced modulo ground_size into 1..ground_size."""
    return (index - 1) % ground_size + 1


def window(start: int, length: int, ground_size: int) -> EncoderSet:
    """The cyclic window of `length` consecutive indices starting at `start`."""
    _check_ground(ground_size)
    if not 1 <= start <= ground_size:
        raise ValueError(f"start must be in 1..{ground_size}, got {start}")
    if not 1 <= length <= ground_size:
        raise ValueError(f"length must be in 1..{ground_size}, got {length}")
    members = sorted(wrap_index(start + i, ground_size) for i in range(length))
    return EncoderSet(tuple(members), ground_size)


def windows(ground_size: int, length: int) -> list[EncoderSet]:
    """The L windows of a given length, indexed by their start 1..L."""
    return [window(l, length, ground_size) for l in range(1, ground_size + 1)]
