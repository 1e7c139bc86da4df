"""Slotted record classes with the ``==``, ``hash`` and ``repr`` of a dataclass.

A record class lists its fields, in order, as ``__slots__`` and writes its
own ``__init__``.  Two records are equal when they are of the same class and
their field tuples are equal; ``repr`` is ``Name(field=value, ...)``.  A
``Frozen`` record hashes its field tuple and refuses assignment, so its
``__init__`` stores each field with ``setfield``; a plain ``Record`` is
mutable and unhashable.  Unlike a named tuple, a record is not iterable and
never equals a tuple or a record of another class.

``dataclasses`` would give the same, but importing it (it pulls in
``inspect``) and building each decorated class cost a CLI process more
than many of its commands do.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Record:
    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not cls.__slots__:  # Frozen itself
            return
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
