"""Weyl quantization and the Wigner-Moyal calculus on the torus.

The phase space is the unit torus carrying a 2N x 2N half-integer
lattice, the Hilbert space is C^N, and the Planck constant is 1/N.
Symbols come in two interchangeable forms, trigonometric polynomials
and sampled lattice grids; quantization, dequantization, the Moyal
product and bracket, discrete Wigner tables and Heisenberg dynamics
all operate on these.
"""
from . import errors, moyal, quantize, rep, symbols, wigner
from .errors import *
from .moyal import *
from .quantize import *
from .rep import *
from .symbols import *
from .wigner import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, rep, symbols, quantize, wigner, moyal)
    for name in module.__all__
]
