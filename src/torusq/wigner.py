"""Discrete Wigner transform on the doubled 2N x 2N phase space lattice.

The table of a state pair (psi, phi) or of an operator lives on the same
lattice as a sampled symbol.  Only the principal N x N block is free: the
three symmetries

    S1:  W(m + N, l) = (-1)^l W(m, l)
    S2:  W(m, l + N) = (-1)^m W(m, l)
    S3:  W(m + N, l + N) = (-1)^(m + l + N) W(m, l)

propagate it to the rest of the grid (the ghost copies).  Every table comes
from one kernel on an N x N operator, a state pair (psi, phi) through the
rank-one operator phi psi^*: one FFT per row gives the principal block, and
symmetric_extension, whose signs live in symbols beside the fold, fills the
ghost copies, so S1 to S3 hold bit for bit by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .rep import Representation, _check_operator, heisenberg
from .symbols import SampledSymbol, _frozen_grid, symmetric_extension

__all__ = [
    "KIND_STATE_PAIR",
    "KIND_OPERATOR",
    "WignerTable",
    "fourier_wigner",
    "wigner_state",
    "wigner_operator",
    "marginal_x",
    "marginal_p",
    "pairing",
    "check_symmetries",
    "symmetric_extension",
]

KIND_STATE_PAIR = "state-pair"
KIND_OPERATOR = "operator"


@dataclass(frozen=True, eq=False)
class WignerTable:
    """2N x 2N Wigner table together with its representation and source kind."""

    grid: np.ndarray
    rep: Representation
    kind: str

    def __post_init__(self):
        if self.kind not in (KIND_STATE_PAIR, KIND_OPERATOR):
            raise DomainError(f"unknown Wigner table kind {self.kind!r}")
        object.__setattr__(self, "grid", _frozen_grid(self.grid, self.rep, "Wigner table"))


def _check_state(rep: Representation, psi: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(psi, dtype=complex)
    if vec.shape != (rep.dim,):
        raise DimensionError(f"{name} must be a length-{rep.dim} vector, got shape {vec.shape}")
    return vec


def _core(a: np.ndarray) -> np.ndarray:
    # Principal block: (1/2N) sum_l A[l, r - l] exp(-i pi (2l - r) s / N) is the row
    # FFT of A[l, r - l] times exp(i pi r s / N); S1 to S3 give the ghost blocks.
    n = len(a)
    r = np.arange(n)[:, None]
    l = np.arange(n)[None, :]
    twist = np.exp(1j * np.pi * np.arange(2 * n) / n)[(r * l) % (2 * n)]
    return symmetric_extension(twist * np.fft.fft(a[l, (r - l) % n], axis=1) / (2 * n))


def fourier_wigner(rep: Representation, psi, phi, n1: int, n2: int) -> complex:
    """Matrix coefficient <psi, T(n1, n2) phi>, antilinear in the first slot."""
    psi = _check_state(rep, psi, "psi")
    phi = _check_state(rep, phi, "phi")
    return complex(np.vdot(psi, heisenberg(rep, n1, n2) @ phi))


def wigner_state(rep: Representation, psi, phi) -> WignerTable:
    """Wigner table of a state pair.

    W(r, s) = (1/2N) sum_{l in Z_N} conj(psi[r - l]) phi[l] exp(-i pi (2l - r) s / N),
    state indices mod N: the table of the rank-one operator phi psi^*.
    """
    psi = _check_state(rep, psi, "psi")
    phi = _check_state(rep, phi, "phi")
    return WignerTable(_core(np.conj(psi) * phi[:, None]), rep, KIND_STATE_PAIR)


def wigner_operator(rep: Representation, operator) -> WignerTable:
    """Wigner table of an operator.

    W(r, s) = (1/2N) sum_{l in Z_N} A[l, r - l] exp(-i pi (2l - r) s / N).
    """
    return WignerTable(_core(_check_operator(rep, operator)), rep, KIND_OPERATOR)


def marginal_x(table: WignerTable) -> np.ndarray:
    """Row sums of the table.  For a state pair, slot 2j holds conj(psi_j) phi_j
    and the odd slots vanish."""
    return table.grid.sum(axis=1)


def marginal_p(table: WignerTable) -> np.ndarray:
    """Column sums of the table.  For a state pair, slot 2j holds
    (1/N) conj(psihat_j) phihat_j in the forward DFT normalization, odd slots vanish."""
    return table.grid.sum(axis=0)


def pairing(sym: SampledSymbol, psi, phi) -> complex:
    """Lattice pairing sum_{r,s} sym(r, s) W(psi, phi)(r, s).

    Equals the matrix element <psi, Op(sym) phi> of the quantized symbol.
    """
    table = wigner_state(sym.rep, psi, phi)
    return complex(np.sum(sym.grid * table.grid))


def check_symmetries(table: WignerTable) -> float:
    """Largest |grid - symmetric_extension(grid[:N, :N])|, the ghost blocks' distance
    from the S1 to S3 copies of the principal block: 0.0 exactly when they hold."""
    n = table.rep.dim
    return float(np.max(np.abs(table.grid - symmetric_extension(table.grid[:n, :n]))))
