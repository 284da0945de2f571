"""Scalar invariants of universal Picard varieties over moduli of curves."""

from __future__ import annotations

import math

from .errors import DomainError, _Record

__all__ = [
    "PicardParams",
    "kouvidakis_class",
    "coarse_moduli_predicate",
    "class_group_rank",
    "normalize_degree",
]


def _check_g(g: int) -> None:
    if isinstance(g, bool) or not isinstance(g, int) or g < 3:
        raise DomainError(f"genus must be an integer >= 3, got {g!r}")


def _check_d(d: int) -> None:
    if isinstance(d, bool) or not isinstance(d, int):
        raise DomainError(f"degree must be an integer, got {d!r}")


def kouvidakis_class(g: int, d: int) -> int:
    """Index of the Kouvidakis class: (2g - 2) / gcd(2g - 2, g + d - 1)."""
    _check_g(g)
    _check_d(d)
    return (2 * g - 2) // math.gcd(2 * g - 2, g + d - 1)


def coarse_moduli_predicate(g: int, d: int) -> bool:
    """True when gcd(d - g + 1, 2g - 2) = 1, i.e. the fibration has no
    multisections of low degree obstructing a universal line bundle."""
    _check_g(g)
    _check_d(d)
    return math.gcd(d - g + 1, 2 * g - 2) == 1


def class_group_rank(g: int) -> int:
    """Rank of the known free part of the class group: floor(g/2) + 3."""
    _check_g(g)
    return g // 2 + 3


def normalize_degree(g: int, d: int) -> int:
    """Smallest degree >= 20(g - 1) congruent to d modulo 2g - 2.

    Twisting by a line bundle of relative degree 2g - 2 identifies the two
    Picard varieties, so the scalar invariants agree before and after; the
    postcondition checks exactly that and raises RuntimeError if it fails.
    """
    _check_g(g)
    _check_d(d)
    lo = 20 * (g - 1)
    shifted = lo + (d - lo) % (2 * g - 2)
    same_class = kouvidakis_class(g, shifted) == kouvidakis_class(g, d)
    same_coarse = coarse_moduli_predicate(g, shifted) == coarse_moduli_predicate(g, d)
    if not (same_class and same_coarse):
        raise RuntimeError(
            f"internal error: scalar invariants change under normalization at "
            f"(g, d, shifted) = ({g}, {d}, {shifted})"
        )
    return shifted


class PicardParams(_Record):
    """Validated (genus, degree) pair with the scalar invariants attached."""

    def __init__(self, g: int, d: int) -> None:
        _check_g(g)
        _check_d(d)
        vars(self).update(g=g, d=d)

    @property
    def kouvidakis(self) -> int:
        return kouvidakis_class(self.g, self.d)

    @property
    def coarse(self) -> bool:
        return coarse_moduli_predicate(self.g, self.d)

    @property
    def rank(self) -> int:
        return class_group_rank(self.g)

    @property
    def normalized(self) -> int:
        return normalize_degree(self.g, self.d)
