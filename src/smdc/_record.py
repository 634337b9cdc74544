"""The base of the library's records: slotted and read-only, with no code
generated at import.  A subclass lists its slots, and in `_fields` those
that equality, hash and repr read, as a dataclass would."""


class Record:
    __slots__ = ()

    def _init(self, *values) -> None:  # the slots in order, past the read-only guard
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setstate__(self, state) -> None:  # copy and pickle pass (None, slot -> value)
        self._init(*map(state[1].get, self.__slots__))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
