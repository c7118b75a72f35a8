"""Unitary representations of the discrete Heisenberg group on C^N.

A representation is labelled by a point theta = (theta1, theta2) of the
torus together with the dimension N; the effective Planck constant is 1/N.
The group element (n1, n2) acts on the canonical basis by shifting the
basis index by n2 and multiplying by clock phases in n1.  Every operator,
state, block and grid that enters the library passes one check, _checked;
a public kernel checks, then calls a core that internal chains call directly.
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


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not _is_integer(self.dim):
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


def _checked(value, name: str, shape: tuple) -> np.ndarray:
    """value as a complex array, not copied when it is one already.  DimensionError unless its
    shape is shape, each None standing for the first axis's length, at least 1; DomainError
    naming the argument unless its entries are finite."""
    a = np.asarray(value, dtype=complex)
    n = a.shape[0] if a.ndim else 0
    if a.shape != tuple(n if s is None else s for s in shape) or not a.size:
        wanted = str(shape).replace("None", "n") + (" with n >= 1" if None in shape else "")
        raise DimensionError(f"{name} must have shape {wanted}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"{name} entries must be finite")
    return a


def _group_sum(rep: Representation, terms) -> np.ndarray:
    """sum c T(n1, n2) over the pairs ((n1, n2), c) in terms: the T x N entries
    of heisenberg, weighted and added in one bincount, in O(T N + N^2)."""
    n, j = rep.dim, np.arange(rep.dim)
    k1, k2 = (np.array([float(k[i]) for k, _ in terms]).reshape(-1, 1) for i in (0, 1))
    shift = np.array([k[1] % n for k, _ in terms], dtype=np.intp).reshape(-1, 1)
    angle = (-np.pi * k1 * k2 + 2.0 * np.pi * (k1 * (j + rep.theta1) + k2 * rep.theta2)) / n
    entries = np.array([c for _, c in terms], dtype=complex).reshape(-1, 1) * np.exp(1j * angle)
    slots = (2 * ((j - shift) % n * n + j))[..., None] + (0, 1)  # real, imag of row * N + j
    return np.bincount(slots.ravel(), entries.view(float).ravel(), 2 * n * n).view(complex).reshape(n, n)


def heisenberg(rep: Representation, n1: int, n2: int) -> np.ndarray:
    """Matrix of the group element (n1, n2) in the representation rep.

    Column j carries
        exp(-i pi n1 n2 / N) exp(2 i pi n1 (j + theta1) / N) exp(2 i pi n2 theta2 / N)
    in row (j - n2) mod N, each entry from one complex exponential: unitary to
    machine precision for any integers n1, n2, which enter the phase as floats
    and the row as n2 mod N.  It is the one-term case of _group_sum.  A label
    that is a bool or not an integer raises DomainError.
    """
    if not (_is_integer(n1) and _is_integer(n2)):
        raise DomainError(f"group element labels must be integers, got ({n1!r}, {n2!r})")
    return _group_sum(rep, (((n1, n2), 1.0),))


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
    worst = dict.fromkeys(("adjoint", "product", "commutation", "periodicity_2n", "periodicity_n"), 0.0)
    for n1, n2, m1, m2 in samples:
        t_n = heisenberg(rep, n1, n2)
        # Powers of the generators are themselves group elements, so negative
        # exponents never require a matrix inverse.
        p1 = heisenberg(rep, n1, 0)
        p2 = heisenberg(rep, 0, n2)
        cocycle = np.exp(-1j * np.pi * (n1 * m2 - n2 * m1) / n)
        phase_2n = np.exp(2j * np.pi * (2 * m1 * rep.theta1 + 2 * m2 * rep.theta2))
        laws = (
            ("adjoint", t_n.conj().T, heisenberg(rep, -n1, -n2)),
            ("product", t_n @ heisenberg(rep, m1, m2), cocycle * heisenberg(rep, n1 + m1, n2 + m2)),
            ("commutation", p1 @ p2, np.exp(-2j * np.pi * n1 * n2 / n) * p2 @ p1),
            ("periodicity_2n", heisenberg(rep, n1 + 2 * n * m1, n2 + 2 * n * m2), phase_2n * t_n),
            ("periodicity_n", heisenberg(rep, n1 + m1 * n, 0), np.exp(2j * np.pi * m1 * rep.theta1) * p1),
            ("periodicity_n", heisenberg(rep, 0, n2 + m2 * n), np.exp(2j * np.pi * m2 * rep.theta2) * p2),
        )
        for name, lhs, rhs in laws:
            worst[name] = max(worst[name], float(np.max(np.abs(lhs - rhs))))
    return worst
