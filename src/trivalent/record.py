"""Immutable value records.

A record class names its constructor's fields in ``_fields`` and keeps
them in ``__slots__``; its ``__init__`` checks the values and stores
them with ``_set``.  A record compares and hashes by its field values,
and only with records of its own type, refuses assignment, and copies
and pickles by calling its constructor again with those values.  This
is what ``@dataclass(frozen=True)`` provided, without importing
``dataclasses`` and the modules it loads, and without building methods
from source text for every class at import time.
"""
from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]

#: stores a field from ``__init__``, past the refusing ``__setattr__``
_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        #: the field values as a tuple, read in C
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({fields})"
