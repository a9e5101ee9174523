"""Immutable records with field-wise equality and hashing.

A record class names its fields in ``_fields`` and sets each of them
once, in its own ``__init__``, through ``setfield``; assigning to or
deleting an attribute afterwards raises AttributeError.  Two records
are equal when they have the same class and equal fields, and equal
records hash alike.  Anything else kept in an instance's ``__dict__``,
such as the memo of ``algebra.derived`` or a ``cached_property``
value, is not a field and takes no part in either.
"""

from __future__ import annotations

from operator import attrgetter

# Bypasses Record.__setattr__; for use in a record's __init__ only.
setfield = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")
