"""Slotted record classes with the ``==``, ``hash`` and ``repr`` of a dataclass.

A record class lists its fields, in order, as ``__slots__``, and the
defaults of its trailing fields in ``_defaults``; ``Record.__init__`` binds
positional and keyword arguments to the fields as a ``def`` with those
parameters would, and raises ``TypeError`` for a missing, surplus, unknown
or repeated argument.  A default that is a ``dict`` is copied for each
record, so no two records share it.  Two records are equal when they are
of the same class and their field tuples are equal; ``repr`` is
``Name(field=value, ...)``.  A ``Frozen`` record hashes its field tuple and
refuses assignment, which ``__init__`` passes by storing with
``object.__setattr__``; a plain ``Record`` is mutable and unhashable.
Unlike a named tuple, a record is not iterable and never equals a tuple or
a record of another class.

``dataclasses`` would give the same, but importing it (it pulls in
``inspect``) and building each decorated class cost a CLI process more
than many of its commands do.  For the same reason no class gets a
generated ``__init__``: compiling one per class costs every import, where
the shared one costs up to a microsecond more per record built.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Record:
    __slots__ = ()
    __hash__ = None
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if not names:  # Frozen itself
            return
        for before, name in zip(names, names[1:]):
            if before in cls._defaults and name not in cls._defaults:
                raise TypeError(f"{cls.__name__}: required field {name!r} follows a default")
        get = attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{self.__class__.__name__}() takes {len(names)} positional arguments "
                f"but {len(args)} were given"
            )
        for name, value in zip(names, args):
            setfield(self, name, value)
        if kwargs or len(args) < len(names):
            defaults = self._defaults
            for name in names[len(args):]:
                if name in kwargs:
                    value = kwargs.pop(name)
                elif name in defaults:
                    value = defaults[name]
                    if value.__class__ is dict:
                        value = dict(value)
                else:
                    raise TypeError(f"{self.__class__.__name__}() missing argument {name!r}")
                setfield(self, name, value)
            for name in kwargs:
                what = "multiple values for" if name in names else "an unexpected keyword"
                raise TypeError(f"{self.__class__.__name__}() got {what} argument {name!r}")

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
