"""Immutable records with field-wise equality and hashing.

A record class declares its fields once, as class annotations, in
order; ``Record`` reads them into ``_fields`` and provides the one
constructor, which takes the fields by position or by name.  Assigning
to or deleting an attribute afterwards raises AttributeError.  Two
records are equal when they have the same class and equal fields, and
equal records hash alike.  Anything else kept in an instance's
``__dict__``, such as the memo of ``algebra.derived`` or a
``cached_property`` value, is not a field and takes no part in either.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields = ()

    def __init_subclass__(cls):
        # The class's own annotations, in order; only their names are read.
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # Bypasses __setattr__, which refuses every assignment.
        self.__dict__.update(zip(fields, args))

    def _bind(self, args, kwargs) -> list:
        """The field values in order, from positions and then names."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, "
                            f"{len(args)} given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name} has no field {key!r}")
            if key in values:
                raise TypeError(f"{name} got field {key!r} twice")
            values[key] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name} is missing fields: {', '.join(missing)}")
        return [values[f] for f in fields]

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
