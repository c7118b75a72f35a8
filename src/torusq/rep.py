"""Unitary representations of the discrete Heisenberg group on C^N.

A representation is labelled by a point theta = (theta1, theta2) of the
torus together with the dimension N; the effective Planck constant is 1/N.
The group element (n1, n2) acts on the canonical basis by shifting the
basis index by n2 and multiplying by clock phases in n1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "Representation",
    "heisenberg",
    "generator_t1",
    "generator_t2",
    "check_representation_laws",
]


def _finite_real(value, name: str) -> float:
    """value as a float; DomainError unless it is a finite real number (bools excluded)."""
    try:
        if isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer past the float range
        pass
    raise DomainError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class Representation:
    """Label (theta1, theta2, dim) of an N-dimensional unitary representation.

    Both theta components are reduced mod 1 on construction, so two labels
    compare equal exactly when their reduced values coincide bit for bit.
    A dim that is not an integer of at least 1 raises DimensionError, and a
    theta that is not a finite real number raises DomainError.
    """

    theta1: float
    theta2: float
    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or isinstance(self.dim, bool):
            raise DimensionError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise DimensionError(f"dim must be at least 1, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        for name in ("theta1", "theta2"):
            value = _finite_real(getattr(self, name), name) % 1.0
            if value >= 1.0:
                # Python's float mod can round up to the divisor for tiny
                # negative inputs; fold that case back to 0.
                value = 0.0
            object.__setattr__(self, name, value)


def _check_operator(rep: Representation, operator) -> np.ndarray:
    """operator as a complex array; DimensionError unless it is rep.dim x rep.dim."""
    a = np.asarray(operator, dtype=complex)
    if a.shape != (rep.dim, rep.dim):
        raise DimensionError(f"operator must be {rep.dim} x {rep.dim}, got shape {a.shape}")
    return a


def heisenberg(rep: Representation, n1: int, n2: int) -> np.ndarray:
    """Matrix of the group element (n1, n2) in the representation rep.

    Column j carries
        exp(-i pi n1 n2 / N) exp(2 i pi n1 (j + theta1) / N) exp(2 i pi n2 theta2 / N)
    in row (j - n2) mod N.  Each entry is produced by a single complex
    exponential, which keeps the matrix unitary to machine precision for
    arbitrary, possibly negative, n1 and n2.
    """
    n = rep.dim
    j = np.arange(n)
    angle = (-np.pi * n1 * n2 + 2.0 * np.pi * (n1 * (j + rep.theta1) + n2 * rep.theta2)) / n
    matrix = np.zeros((n, n), dtype=complex)
    matrix[(j - n2) % n, j] = np.exp(1j * angle)
    return matrix


def generator_t1(rep: Representation) -> np.ndarray:
    """Clock generator t1 = heisenberg(rep, 1, 0), diagonal in the canonical basis."""
    return heisenberg(rep, 1, 0)


def generator_t2(rep: Representation) -> np.ndarray:
    """Shift generator t2 = heisenberg(rep, 0, 1)."""
    return heisenberg(rep, 0, 1)


def check_representation_laws(rep: Representation, samples) -> dict:
    """Worst-case deviation of the five defining identities over sample tuples.

    samples is an iterable of integer tuples (n1, n2, m1, m2).  For each
    tuple the following are evaluated, and the report maps a law name to the
    maximum elementwise deviation seen:

      adjoint         T(n)* = T(-n)
      product         T(n) T(m) = exp(-i pi (n1 m2 - n2 m1)/N) T(n + m)
      commutation     t1^n1 t2^n2 = exp(-2 i pi n1 n2 / N) t2^n2 t1^n1
      periodicity_2n  T(n + 2N m) = exp(2 i pi (2 m1 theta1 + 2 m2 theta2)) T(n)
      periodicity_n   t1^(n1 + m1 N) = exp(2 i pi m1 theta1) t1^n1, same for t2
    """
    n = rep.dim
    worst = {
        "adjoint": 0.0,
        "product": 0.0,
        "commutation": 0.0,
        "periodicity_2n": 0.0,
        "periodicity_n": 0.0,
    }

    def dev(a, b):
        return float(np.max(np.abs(a - b)))

    for n1, n2, m1, m2 in samples:
        t_n = heisenberg(rep, n1, n2)
        t_m = heisenberg(rep, m1, m2)

        worst["adjoint"] = max(worst["adjoint"], dev(t_n.conj().T, heisenberg(rep, -n1, -n2)))

        cocycle = np.exp(-1j * np.pi * (n1 * m2 - n2 * m1) / n)
        worst["product"] = max(
            worst["product"], dev(t_n @ t_m, cocycle * heisenberg(rep, n1 + m1, n2 + m2))
        )

        # Powers of the generators are themselves group elements, so negative
        # exponents never require a matrix inverse.
        p1 = heisenberg(rep, n1, 0)
        p2 = heisenberg(rep, 0, n2)
        worst["commutation"] = max(
            worst["commutation"], dev(p1 @ p2, np.exp(-2j * np.pi * n1 * n2 / n) * p2 @ p1)
        )

        phase_2n = np.exp(2j * np.pi * (2 * m1 * rep.theta1 + 2 * m2 * rep.theta2))
        worst["periodicity_2n"] = max(
            worst["periodicity_2n"],
            dev(heisenberg(rep, n1 + 2 * n * m1, n2 + 2 * n * m2), phase_2n * t_n),
        )

        worst["periodicity_n"] = max(
            worst["periodicity_n"],
            dev(heisenberg(rep, n1 + m1 * n, 0), np.exp(2j * np.pi * m1 * rep.theta1) * p1),
            dev(heisenberg(rep, 0, n2 + m2 * n), np.exp(2j * np.pi * m2 * rep.theta2) * p2),
        )

    return worst
