"""Immutable value classes, without the dataclasses module.

A Record subclass names its fields in __slots__ and sets each one once
in __init__ through `init_field`; assigning or deleting a field later
raises.  A subclass of a record class has its base's fields plus the
slots it adds.  Records are equal only to records of the same class with
equal fields, hash by their fields, and print as Name(field=value, ...).
GradedElement and Profile, which are built or hashed in hot loops, spell
out __eq__ and __hash__ over their fields instead of the generic ones here.
Records pickle by their field values, which are set again on loading
without running __init__.
"""

init_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # the default slot-state restore assigns through __setattr__
        return _rebuild, (type(self), self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


def _rebuild(cls, values: tuple) -> Record:
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        init_field(obj, name, value)
    return obj
