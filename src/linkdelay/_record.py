"""Plain record classes: the package's value types, built without code generation.

A record names its fields in ``__slots__``, in the order of its
``__init__`` parameters, and its ``__init__`` checks the arguments and
then stores each field with its own ``set_field(self, name, value)``
call; without a loop over the fields, a record builds as fast as a
dataclass.  This base gives the record a repr, equality over the
fields, ``replace`` and pickling; ``Frozen`` also refuses assignment
and deletion and hashes the fields.  A
``"__dict__"`` entry in ``__slots__`` is not a field: it gives a record
room for ``functools.cached_property`` values.
"""

from __future__ import annotations

# stores one field, past a Frozen record's refusing __setattr__
set_field = object.__setattr__


class Record:
    """A mutable record: fields in ``__slots__``, compared by value and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    # equal records hash equal, and a mutable record's fields may change
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self):
        # __init__ takes the fields in __slots__ order, and checks them again
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the given fields changed; ``__init__`` checks the result again."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


class Frozen(Record):
    """An immutable record: assignment and deletion raise AttributeError, and it hashes its fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")

    def __hash__(self) -> int:
        return hash(self._values())
