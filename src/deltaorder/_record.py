"""Frozen records: the package's value classes without ``dataclasses``.

A record names its fields in ``__slots__`` and sets them once, in its own
``__init__``, through ``_set``.  A field that follows from the others (a
count, a sum, a slope, a verdict) is a slot like any other, but its
``__init__`` sets it from them, and it takes no parameter for it.  Two
records are equal when they are of one class and their fields are equal;
the hash and the repr read the same fields.  Those are ``_fields``: by
default the class's own ``__slots__``, or its parent's when it declares
none.  Assignment and deletion raise AttributeError.

The package's 14 records use this base; ``SeriesSolution`` stays a frozen
dataclass.  Importing ``dataclasses`` loads ``inspect``, and each frozen
dataclass compiles its methods at class creation; together they took about
14 ms of a command's start for 13 of these records, on a shared 2-vCPU host.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__ and cls.__dict__.get("__slots__"):
            cls._fields = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
