"""Record: equality, hash, repr and immutability for the package's value classes."""

from __future__ import annotations

from operator import attrgetter


class Record:
    """An immutable value over a declared tuple of fields.

    A subclass names its fields in constructor order in `_fields`, and may name
    other attributes in `_compared`, read by equality and the hash, and fewer
    in `_shown`, read by repr.  __init__ stores each field, or what a cached
    field derives from, in the instance __dict__.  Two instances are equal when
    they are of one class and their compared fields are equal, the hash is that
    of the compared fields, repr is Class(field=value, ...), and assigning or
    deleting an attribute raises AttributeError.  cached_property and pickling
    write the instance __dict__ directly, so both work unchanged.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        compared = cls.__dict__.get("_compared", cls._fields)
        cls._shown = cls.__dict__.get("_shown", cls._fields)
        cls.__match_args__ = cls._fields
        cls._key = attrgetter(*compared)  # not a descriptor: self._key does not bind

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
