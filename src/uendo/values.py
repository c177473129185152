"""The frozen base of the package's value classes.

The standard library's generated record classes cost about 0.8 ms each to
build at import time, and their module pulls in `inspect`; for a CLI whose
answers take well under a millisecond that was a third of the start-up.  A
`Value` subclass instead lists its fields in `__slots__` and sets them in an
explicit `__init__` through `set_field`; a slot whose name starts with '_'
is a cache, not a field.  The base supplies the rest of a frozen record: the
`Name(field=value, ...)` repr, equality only between instances of the same
class, the hash of the tuple of fields, `AttributeError` on assignment and
deletion, and copying and pickling, which rebuild through `__init__`.
"""

from operator import attrgetter

# Stores a field from `__init__`, past the refusing `__setattr__`.
set_field = object.__setattr__


class Value:
    """Base of the frozen value classes; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*fields)
        cls._fields = fields
        # the fields as a tuple, which attrgetter gives only for two or more
        cls._values = get if len(fields) > 1 else staticmethod(lambda obj: (get(obj),))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._values(self)
