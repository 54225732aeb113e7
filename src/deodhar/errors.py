"""Exception hierarchy and the immutable record base shared across the package.

Every module imports this one, and it imports nothing of the package, so
``Record`` lives here: the base of the package's small value types (a reduced
word, a cell shape, a polynomial, orbit data, cell invariants, ...).
"""

from operator import attrgetter


class DeodharError(Exception):
    """Base class for all package errors."""


class ConfigError(DeodharError):
    """Unsupported type/rank, malformed word, or invalid twist data."""


class BudgetError(DeodharError):
    """An enumeration would exceed the configured brute-force budget."""


class NotComparableError(DeodharError):
    """Raised when an operation requires v <= w in Bruhat order."""


class EmptyCellError(DeodharError):
    """Raised for cell-level operations on a non-distinguished subexpression."""


class PreconditionError(DeodharError):
    """A mathematical precondition of the operation is violated."""


class Record:
    """An immutable value whose fields are its class's ``__slots__``.

    A subclass lists its fields once, ``__slots__ = ("a", "b")``, and is
    built positionally or by keyword, ``C(1, b=2)``.  Two records are equal
    when they are of the same class and their fields are equal, and equal
    records hash equal; both read the fields through one ``attrgetter`` per
    class.  Assigning or deleting an attribute raises ``AttributeError``;
    ``__init__`` sets fields with ``object.__setattr__``, and a subclass on a
    hot path defines its own ``__init__`` the same way.  ``copy.copy`` and
    ``copy.deepcopy`` return the record itself.  The repr is
    ``Name(a=1, b=2)``.  A method a subclass defines itself wins.
    ``tests/test_records.py`` checks this contract on every subclass.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        count = len(args) + len(kwargs)
        if kwargs:
            # a repeated, unknown or surplus name drops out, so the count differs
            values = dict(zip(fields, args), **kwargs)
            args = [values[name] for name in fields if name in values]
        if len(args) != count or count != len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(fields)}"
            )
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
