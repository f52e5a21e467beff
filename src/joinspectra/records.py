"""The immutable-record base of the package's small value classes.

A record lists its fields in `__slots__`, sets them with `object.__setattr__`
in `__init__`, and defines `__eq__` and `__hash__` on its field tuple itself:
`other.__class__ is self.__class__` or `NotImplemented`, then the two tuples
compared or hashed.  `Record` adds what every record shares: no assignment or
deletion once built, and the `Name(field=value, ...)` repr.
`Polynomial` and `RationalMatrix` take only the immutability: they keep
their own repr and compare their canonical integer form.  Nothing is
generated at import: generated record methods would pull in the standard
library's `inspect` and `exec` code per class, which cost more than the rest
of the package's import and show in every CLI call's start-up.
"""

from __future__ import annotations


class Record:
    """Immutable slotted record; subclasses name their fields in `__slots__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
