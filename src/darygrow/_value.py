"""Immutable values, without ``dataclasses``.

Importing ``dataclasses`` costs a fresh interpreter about 11 ms, because
it pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
decorated class about 1 ms more: as long as a small ``grow`` run spends in
the kernel.  The package's small records subclass :class:`Record` instead,
which gives the same value semantics from plain ``__slots__`` classes.
"""


class Value:
    """Equality by ``key()``, and only with values of the same type."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.key() == other.key()


class Record(Value):
    """An immutable value whose fields are its ``__slots__``, in order.

    Built from its fields by position or by name; a field left out takes
    its value in ``_defaults``.  Its key is the tuple of its fields: a
    record equals and hashes by it, and is shown as ``Name(field=value,
    ...)``.  Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._from_names(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_names(cls, args, kwargs) -> list:
        """The fields in order, from the arguments and the defaults."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(args)}")
        values = {**cls._defaults, **kwargs}
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__} got field {name!r} twice")
            values[name] = value
        try:
            fields = [values.pop(name) for name in names]
        except KeyError as exc:
            raise TypeError(f"{cls.__name__} needs field {exc.args[0]!r}") from None
        if values:
            raise TypeError(f"{cls.__name__} has no field {min(values)!r}")
        return fields

    def key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self.key()


def _order(compare):
    def method(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return compare(self.key(), other.key())

    return method


class OrderedRecord(Record):
    """A record that also orders by the tuple of its fields."""

    __slots__ = ()
    __lt__ = _order(tuple.__lt__)
    __le__ = _order(tuple.__le__)
    __gt__ = _order(tuple.__gt__)
    __ge__ = _order(tuple.__ge__)
