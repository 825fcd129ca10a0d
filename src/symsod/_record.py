"""``Record``, the immutable slotted base of symsod's records, and ``InternalInvariantError``."""

from __future__ import annotations

from operator import attrgetter

# object's own setter, bound once: a record refuses attribute assignment, so its
# constructor fills its slots through it
_set = object.__setattr__


class InternalInvariantError(AssertionError):
    """A structural invariant of the engine failed; maps to CLI exit 3.  Every
    layer imports this module, so none imports another layer to raise it."""


class Record:
    """An immutable value whose fields are the ``__slots__`` of its class.

    Equality and hash go by the class and the fields, read by one
    ``operator.attrgetter`` per class; the repr is ``Name(field=value, ...)``,
    and pickle and copy rebuild the value through the class's constructor,
    which takes the fields in order.  A subclass whose constructor checks its
    arguments defines ``__init__``, which fills the slots with ``_set`` (or
    ``Record.__init__``) once the checks pass.  A slot named in the class
    keyword ``derived`` holds a value the constructor works out from the
    fields; equality, hash, repr and pickle skip it.
    """

    __slots__ = ()

    def __init_subclass__(cls, derived: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(f for f in cls.__slots__ if f not in derived)
        cls._key = attrgetter(*fields) if fields else staticmethod(lambda record: ())

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {self._fields}, got {values!r}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")
