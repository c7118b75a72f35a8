"""Shared table of the half-period phases exp(-i pi t / N).

Every lattice formula in the package (sampling transforms, Wigner kernels,
the generalized Pauli matrices) uses phases of this form with an integer
exponent t.  Indexing one cached table keeps the N-shift sign identities
bit-exact: the second half of the table is stored as the literal negation
of the first half, so w[(t + N) % 2N] == -w[t] holds with no rounding at
all.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=128)
def phase_table(dim: int) -> np.ndarray:
    """Read-only array w with w[t] = exp(-i pi t / dim) for t in 0..2*dim-1."""
    half = np.exp(-1j * np.pi * np.arange(dim) / dim)
    table = np.concatenate([half, -half])
    table.setflags(write=False)
    return table


def phases(exponents, dim: int) -> np.ndarray:
    """exp(-i pi e / dim) for an integer array e, reduced through the table.

    Accepts any integer exponents (negative included); reduction mod 2*dim
    is exact, so equal angles always yield identical floats.
    """
    return phase_table(dim)[np.mod(np.asarray(exponents), 2 * dim)]
