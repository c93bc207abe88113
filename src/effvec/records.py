"""The immutable base of the result records.

A record lists its fields in ``_fields`` and checks and sets them in its
own ``__init__``.  It equals only an instance of its class with equal
fields, hashes as their tuple and refuses assignment and deletion; copies
and pickles call the class on the fields again.
"""

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        """Set the fields in order; hot constructors set them one by one."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
