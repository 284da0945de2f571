"""Exception types shared across the package, and the frozen-record base
of its value classes.

The base lives here because every command loads this module: a value class
costs a command no import of its own, and no module imports ``dataclasses``
(with ``inspect``) for it.
"""

from __future__ import annotations

from operator import attrgetter


class SpinPicardError(ValueError):
    """Base class for every validation or domain error raised by this package."""


class GraphError(SpinPicardError):
    """Malformed or inconsistent dual-graph data."""


class BlowupError(SpinPicardError):
    """Blow-up counts out of range for the underlying graph."""


class WitnessError(SpinPicardError):
    """Spin witness tables violate bounds, symmetry, or parity."""


class ParityError(SpinPicardError):
    """A spin-parity condition fails: some component keeps an odd contact count."""


class DomainError(SpinPicardError):
    """Parameter outside the supported range (genus, twist bound, stability)."""


class BasicInequalityError(SpinPicardError):
    """The multidegree violates the basic inequality, so it indexes no fiber component."""


class GraphTooLargeError(SpinPicardError):
    """Vertex count exceeds the cap that keeps exhaustive subset scans tractable."""


class _Record:
    """Base of the immutable value classes, which behave as frozen
    dataclasses do: a repr naming every field, ``==`` between instances of
    one class comparing their field tuples, a hash that is the field tuple's,
    and ``AttributeError`` on assignment or deletion.

    The fields are the positional parameters of the subclass's own
    ``__init__`` (``__match_args__``), which runs the class's checks, if
    any, and stores each field under its name in the instance dict, in that
    order; the library builds values it derived itself through
    `graphs._unchecked`.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        fields = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*fields)
        # The field tuple; attrgetter gives a bare value for one field.
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={v!r}' for f, v in fields)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
