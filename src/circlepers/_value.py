"""The one base of the package's immutable value classes.

A value class lists its fields in ``__slots__`` and sets each of them once,
through ``object.__setattr__``, in its own ``__init__``.  This base gives it
field-wise equality and hashing within one class, a ``Name(field=...)``
repr, copying and pickling through the constructor, and no way to assign or
delete a field afterwards.  Frozen dataclasses gave the same, but importing
`dataclasses` and generating their methods cost a large share of every
command's cold start.
"""

from operator import attrgetter


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # a class compares and shows the fields it names in `_fields`, by
        # default its own slots; a subclass with no slots keeps its parent's
        fields = cls.__dict__.get("_fields") or cls.__dict__.get("__slots__")
        if fields:
            get = attrgetter(*fields)
            cls._fields = fields
            cls._values = staticmethod(get if len(fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
