"""The immutable-record base of the package's small value classes.

A record lists its fields in `__slots__` and gets everything else from
`Record`: `__init__` sets the fields by position or keyword, `==` compares
the field tuples of two records of the same class, `hash` hashes that tuple,
the repr reads `Name(field=value, ...)`, and no field can be assigned or
deleted once built.  A class that checks or converts its arguments keeps its
own `__init__` and ends it with `Record.__init__(self, ...)`.
`Polynomial` and `RationalMatrix` take only the immutability: they keep
their own constructors and repr and compare their canonical integer form.
Nothing is generated at import: generated record methods would pull in the
standard library's `inspect` and `exec` code per class, which cost more than
the rest of the package's import and show in every CLI call's start-up.
"""

from __future__ import annotations


class Record:
    """Immutable slotted record; subclasses name their fields in `__slots__`."""

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named:
            values += tuple(named.pop(name) for name in fields[len(values) :] if name in named)
        if named or len(values) != len(fields):
            unmatched = f" and the unmatched keywords {sorted(named)}" if named else ""
            raise TypeError(
                f"{type(self).__qualname__} takes the fields ({', '.join(fields)}); got {len(values)} values{unmatched}"
            )
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
