"""Subset families over the encoder index set.

Everything downstream (rate regions, coefficient chains, entropy checks,
codecs) works with fixed-size subsets of {1..L}, the L cyclic windows of
one length, and the children of a subset one level down.  A subset's
identity is its bit mask: an `EncoderSet` builds it once, while its
members are validated, and compares and hashes on (mask, ground size).
Each level family is built once and shared; callers get a fresh list of
it.  Full enumeration is capped at L=24 and coefficient chains, which
hold about L * 2^(L-1) cover entries, at L=18; paths that never
enumerate whole levels may accept larger ground sets.
"""

from __future__ import annotations

from itertools import combinations

from ._record import Record

MAX_ENUMERATION_GROUND = 24
# a coefficient chain holds about L * 2**(L-1) cover entries of some 230
# bytes each: 2.4 million, about half a gigabyte, at L=18, and more than
# twice as many with each encoder past it
MAX_CHAIN_GROUND = 18
# larger families are built afresh on every call rather than kept
MAX_SHARED_FAMILY = 1 << 16


class EncoderSet(Record):
    """An immutable subset of the encoder indices {1..ground_size}.

    Members are kept strictly increasing.  The bit mask, with bit m set
    for each member m, is the set's identity: two sets are equal when
    mask and ground size are.  The empty set is allowed (it appears as a
    conditioning set).
    """

    _fields = ("members", "ground_size")
    __slots__ = _fields + ("mask",)

    def __init__(self, members: tuple[int, ...], ground_size: int) -> None:
        if ground_size < 1:
            raise ValueError("ground_size must be at least 1")
        prev = mask = 0
        for m in members:
            if not isinstance(m, int):
                raise ValueError(f"encoder index {m!r} is not an integer")
            if m < 1:
                raise ValueError(f"encoder index {m} is below 1")
            if m <= prev:
                raise ValueError("members must be strictly increasing")
            prev = m
            mask |= 1 << m
        if prev > ground_size:
            raise ValueError(f"member {prev} outside ground set of size {ground_size}")
        object.__setattr__(self, "members", members)  # unrolled: the most built record
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and self.ground_size == other.ground_size

    def __hash__(self) -> int:
        # the ground size as one bit above every member's: one int per
        # (mask, ground_size), with no tuple to build
        return self.mask | 1 << self.ground_size + 1

    @classmethod
    def of(cls, members, ground_size: int) -> "EncoderSet":
        return cls(tuple(sorted(set(as_ints(members, "encoder index")))), ground_size)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"

    def children(self) -> list["EncoderSet"]:
        """The |U| subsets of U with one element removed, in lex order."""
        if len(self.members) < 2:
            raise ValueError("children require a set of size at least 2")
        return [
            EncoderSet(c, self.ground_size)
            for c in combinations(self.members, len(self.members) - 1)
        ]


def as_ints(values, what: str) -> tuple[int, ...]:
    """values read by int(), refusing any that int() would truncate: each
    must equal its int, or be a string, which int() reads only when it
    spells a whole number.  A tuple of ints costs one comparison."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        for x, n in zip(values, ints):
            if n != x and not isinstance(x, (str, bytes)):
                raise ValueError(f"{what} {x!r} is not a whole number")
    return ints


def format_subset(u: EncoderSet) -> str:
    """Chain-file and JSON notation: `1,2`, or `-` for the empty set."""
    return ",".join(str(m) for m in u.members) or "-"


def parse_subset(text: str, ground_size: int) -> EncoderSet:
    """Inverse of `format_subset`."""
    if text == "-":
        return EncoderSet((), ground_size)
    return EncoderSet(tuple(int(x) for x in text.split(",")), ground_size)


def check_ground(ground_size: int) -> None:
    if not 1 <= ground_size <= MAX_ENUMERATION_GROUND:
        raise ValueError(
            f"ground size must be in 1..{MAX_ENUMERATION_GROUND}, got {ground_size}"
        )


# (ground size, size) -> that level's family, built on first use
_FAMILIES: dict[tuple[int, int], tuple[EncoderSet, ...]] = {}


def subsets_of_size(ground_size: int, size: int) -> list[EncoderSet]:
    """All subsets of {1..ground_size} with the given size, lex ordered.

    The sets are shared between calls, the list is not: a caller may
    change the list it gets without changing the next one."""
    family = _FAMILIES.get((ground_size, size))
    if family is None:
        check_ground(ground_size)
        if not 1 <= size <= ground_size:
            raise ValueError(f"size must be in 1..{ground_size}, got {size}")
        family = tuple(
            EncoderSet(c, ground_size)
            for c in combinations(range(1, ground_size + 1), size)
        )
        if len(family) <= MAX_SHARED_FAMILY:
            _FAMILIES[ground_size, size] = family
    return list(family)


def windows(ground_size: int, length: int) -> list[EncoderSet]:
    """The L cyclic windows of `length` consecutive indices, indexed by
    their start 1..L: the window at l holds l..l+length-1 modulo L."""
    check_ground(ground_size)
    L = ground_size
    if not 1 <= length <= L:
        raise ValueError(f"length must be in 1..{L}, got {length}")
    return [EncoderSet(tuple(sorted((l + i) % L + 1 for i in range(length))), L) for l in range(L)]
