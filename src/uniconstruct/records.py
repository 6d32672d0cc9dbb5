"""Record classes with ``__slots__``: equality, repr and, for frozen
records, hashing and immutability field by field, as a dataclass gives
them, with no ``dataclasses`` import (it loads ``inspect`` and ``ast``) and
no class built from generated code."""

from __future__ import annotations


class Record:
    """Fields ``_fields`` (the class's ``__slots__``, unless a record also
    needs a ``__dict__``); records are equal when their class and every
    field are, and a mutable record is unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record hashed on its fields, which ``__init__`` sets with
    ``object.__setattr__`` and nothing may assign or delete afterwards."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which takes the
        # fields in order, since no field may be assigned
        return self.__class__, self._values()
