"""The base of the package's record classes.

A record is a plain slotted class.  It names its fields, in constructor
order, in ``__match_args__`` (which is also its ``__slots__``) and sets
them once in its own ``__init__``, through ``object.__setattr__`` or,
faster, through the setters of its slot descriptors (``setters``);
``_fields`` returns their values in that order.  ``Record`` adds what
a frozen dataclass would: a repr naming each field, ``==`` and hash
over the fields as one tuple, pickling and copying through the
constructor, and ``AttributeError`` on assignment or deletion.

Records are plain classes rather than dataclasses because importing
``dataclasses`` and decorating each class cost most of ``import lad``.
"""
from __future__ import annotations

# Records refuse assignment, so their constructors set fields through this.
_set = object.__setattr__


def setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in constructor
    order: what ``_set`` does, less the name lookup and checks."""
    return tuple([getattr(cls, name).__set__ for name in cls.__match_args__])


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        """The constructor arguments, in order: the fields __match_args__ names."""
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._fields()))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
