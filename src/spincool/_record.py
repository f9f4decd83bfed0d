"""Base class of the records that check their fields when built.

Plain records are `typing.NamedTuple`s.  A record that validates or coerces
its fields is a small `__slots__` class built on FrozenRecord, whose
methods are written once here instead of generated for each class when
its module is imported.
"""

from __future__ import annotations

__all__ = ["FrozenRecord"]


class FrozenRecord:
    """Immutable fields named by the subclass's `_fields`, stored in its `__slots__`.

    A subclass's `__init__` takes the fields in `_fields` order, stores them with
    `self._assign(locals())` and then checks them; any later assignment raises
    AttributeError.  Records of one class compare and hash by their field
    values, and repr, copy and pickle as a call of the constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, values: dict) -> None:
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
