"""Value semantics for the library's small classes, written once.

``Frozen`` stands in for a frozen dataclass.  A subclass names its fields in
``__slots__`` and sets them in ``__init__`` through ``object.__setattr__``;
afterwards assigning or deleting any attribute raises ``AttributeError``.
Instances compare, hash and print by their slot values in slot order, and
never equal an instance of another class.

``Record`` stands in for a plain dataclass: instances compare by
``vars(self)`` against the same class only, and are unhashable.
"""

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        # not a descriptor, so it is called as self._values(self)
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"


class Record:
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None
