"""Scalar invariants of the degree-d Picard fibration."""

from __future__ import annotations

import pytest

from spinpicard import (
    DomainError,
    PicardParams,
    class_group_rank,
    coarse_moduli_predicate,
    kouvidakis_class,
    normalize_degree,
)


def test_kouvidakis_class_values():
    assert kouvidakis_class(3, 42) == 1
    assert kouvidakis_class(4, 60) == 2
    assert kouvidakis_class(3, 0) == 2
    assert kouvidakis_class(5, 4) == 1


def test_kouvidakis_class_periodicity():
    for g in range(3, 8):
        for d in range(-5, 5):
            assert kouvidakis_class(g, d) == kouvidakis_class(g, d + (2 * g - 2))


def test_coarse_predicate():
    assert coarse_moduli_predicate(3, 41)  # gcd(39, 4) = 1
    assert coarse_moduli_predicate(4, 4)  # gcd(1, 6) = 1
    assert not coarse_moduli_predicate(3, 42)  # gcd(40, 4) = 4
    assert not coarse_moduli_predicate(3, 40)  # gcd(38, 4) = 2
    assert not coarse_moduli_predicate(4, 3)  # gcd(0, 6) = 6


def test_coarse_always_fails_at_spin_degrees():
    """d = (2t+1)(g-1) always shares a factor with 2g-2, so the fibration
    never has a coarse space at the degrees the spin locus lives in."""
    for g in range(3, 11):
        for t in range(10, 21):
            assert not coarse_moduli_predicate(g, (2 * t + 1) * (g - 1))


def test_class_group_rank():
    assert class_group_rank(3) == 4
    assert class_group_rank(4) == 5
    assert class_group_rank(5) == 5
    assert class_group_rank(10) == 8


def test_normalize_degree_values():
    assert normalize_degree(3, 5) == 41
    assert normalize_degree(3, 40) == 40
    assert normalize_degree(3, 41) == 41
    assert normalize_degree(4, 0) == 60


def test_normalize_degree_window_and_invariance():
    for g in range(3, 7):
        period = 2 * g - 2
        lo = 20 * (g - 1)
        for d in range(-30, 30):
            r = normalize_degree(g, d)
            assert lo <= r < lo + period
            assert (r - d) % period == 0
            for n in range(6):
                assert normalize_degree(g, d + n * period) == r


def test_validation_errors():
    for bad_g in (2, 0, -1, 3.0, "3"):
        with pytest.raises(DomainError):
            kouvidakis_class(bad_g, 10)
        with pytest.raises(DomainError):
            class_group_rank(bad_g)
    with pytest.raises(DomainError):
        normalize_degree(4, 1.5)
    with pytest.raises(DomainError):
        coarse_moduli_predicate(4, True)  # bools are not degrees


def test_normalize_degree_postcondition_raises(monkeypatch):
    import spinpicard.numerics as numerics

    monkeypatch.setattr(numerics, "kouvidakis_class", lambda g, d: d)
    with pytest.raises(RuntimeError, match=r"\(g, d, shifted\) = \(3, 0, 40\)"):
        normalize_degree(3, 0)
    assert normalize_degree(3, 40) == 40  # unchanged degree: invariants agree


def test_picard_params():
    p = PicardParams(3, 42)
    assert p.kouvidakis == 1
    assert p.coarse is False
    assert p.rank == 4
    assert p.normalized == 42
    with pytest.raises(DomainError):
        PicardParams(2, 10)
