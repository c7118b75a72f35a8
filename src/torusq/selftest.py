"""Acceptance battery: every shipped guarantee checked end to end.

Each criterion draws its data from a seeded generator and returns its
measurements as rows ``(name, value, comparison, limit)``.  The comparison
is ``<``, ``>``, ``==`` or ``in`` (inclusive range ``(lo, hi)``), and a tuple
value must meet it entry by entry.  One judge, `_judged`, turns the rows
into the ``(passed, detail)`` pair of each `CRITERIA` entry: it passes when
every row does, and the detail reads ``name value (comparison limit)`` per
row.  pytest runs one test per criterion; `torusq selftest` runs them all.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dequantize import big_pauli, big_pauli_symbol, dequantize, pauli
from .moyal import (
    HamiltonianSystem,
    evolve_operator,
    evolve_symbol,
    moyal_bracket,
    moyal_product,
    semiclassical_residual,
)
from .quantize import operator_from_reduced, quantize_fourier, quantize_sampled
from .rep import Representation, check_representation_laws, heisenberg
from .symbols import SampledSymbol, TrigPolynomial, delta, kernel_element, sample
from .wigner import (
    check_symmetries,
    fourier_wigner,
    marginal_p,
    marginal_x,
    pairing,
    wigner_operator,
    wigner_state,
)

__all__ = ["CriterionResult", "CRITERIA", "DEFAULT_SEED", "run", "format_result"]

DEFAULT_SEED = 718293


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


_COMPARISONS = {
    "<": lambda value, limit: value < limit,
    ">": lambda value, limit: value > limit,
    "==": lambda value, limit: value == limit,
    "in": lambda value, limit: limit[0] <= value <= limit[1],
}


def _judged(criterion):
    """Wrap a criterion's rows into (passed, detail); a NaN fails every comparison."""
    @functools.wraps(criterion)
    def judged(rng):
        passed, parts = True, []
        for name, value, comparison, limit in criterion(rng):
            values = value if isinstance(value, tuple) else (value,)
            passed &= all(_COMPARISONS[comparison](v, limit) for v in values)
            shown = ", ".join(str(v) if isinstance(v, int) else f"{v:.2e}" for v in values)
            bound = f"[{limit[0]:g}, {limit[1]:g}]" if comparison == "in" else f"{limit:g}"
            parts.append(f"{name} {shown} ({comparison} {bound})")
        return passed, ", ".join(parts)

    return judged


def _dev(a, b=0.0) -> float:
    """Largest entrywise modulus of a - b."""
    return float(np.max(np.abs(a - b)))


def _random_rep(rng, dim: int) -> Representation:
    return Representation(float(rng.uniform()), float(rng.uniform()), dim)


def _random_state(rng, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def _random_grid(rng, side: int) -> np.ndarray:
    return rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))


def _random_trig(rng, terms: int, span: int) -> TrigPolynomial:
    coeffs: dict = {}
    for _ in range(terms):
        key = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        coeffs[key] = coeffs.get(key, 0j) + complex(rng.standard_normal(), rng.standard_normal())
    return TrigPolynomial(coeffs)


_PAULI_TABLES = {
    "identity": 0.5 * np.array([[1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]]),
    "sigma_x": 0.5 * np.array([[0, 0, 0, 0], [1, 0, -1, 0], [0, 0, 0, 0], [1, 0, -1, 0]]),
    "sigma_y": 0.5 * np.array([[0, 0, 0, 0], [0, 1, 0, -1], [0, 0, 0, 0], [0, -1, 0, 1]]),
    "sigma_z": 0.5 * np.array([[0, 1, 0, 1], [0, 0, 0, 0], [0, -1, 0, -1], [0, 0, 0, 0]]),
}


def _criterion_pauli_tables(rng):
    """Wigner tables of the four Pauli operators match the exact displays."""
    rep = _random_rep(rng, 2)
    worst = max(
        _dev(wigner_operator(rep, operator).grid, table)
        for operator, table in zip(pauli(rep), _PAULI_TABLES.values(), strict=True)
    )
    return [("max table deviation", worst, "<", 1e-12)]


def _criterion_generator_dictionary(rng):
    """sigma_z, sigma_x, sigma_y arise from group elements with the theta phases."""
    worst = 0.0
    for _ in range(20):
        rep = _random_rep(rng, 2)
        _, sigma_x, sigma_y, sigma_z = pauli(rep)
        t1, t2 = rep.theta1, rep.theta2
        worst = max(
            worst,
            _dev(sigma_z, np.exp(-1j * np.pi * t1) * heisenberg(rep, 1, 0)),
            _dev(sigma_x, np.exp(-1j * np.pi * t2) * heisenberg(rep, 0, 1)),
            _dev(sigma_y, np.exp(-1j * np.pi * (t1 + t2 + 1.0)) * heisenberg(rep, 1, 1)),
        )
    return [("max dictionary deviation over 20 draws", worst, "<", 1e-12)]


def _criterion_route_equivalence(rng):
    """Fourier-route and sampling-route quantization agree on random trig polynomials."""
    worst = 0.0
    for dim in range(1, 9):
        for _ in range(50):
            rep = _random_rep(rng, dim)
            tp = _random_trig(rng, int(rng.integers(1, 13)), 3 * dim)
            worst = max(worst, _dev(quantize_fourier(tp, rep), quantize_sampled(sample(tp, rep))))
    return [("max route deviation for N=1..8", worst, "<", 1e-9)]


def _criterion_fold_kernel(rng):
    """The fold has rank N^2, so nullity 3N^2; its kernel is invisible to
    quantization while unit non-kernel perturbations are not."""
    wrong_ranks = 0
    worst_invariance = 0.0
    smallest_change = math.inf
    for dim in range(1, 7):
        rep = _random_rep(rng, dim)
        side = 2 * dim
        fold_matrix = np.zeros((dim * dim, side * side), dtype=complex)
        for column in range(side * side):
            basis = np.zeros((side, side))
            basis.flat[column] = 1.0
            fold_matrix[:, column] = delta(SampledSymbol(basis, rep)).ravel()
        wrong_ranks += int(np.linalg.matrix_rank(fold_matrix)) != dim * dim
        sym = SampledSymbol(_random_grid(rng, side), rep)
        base = quantize_sampled(sym)
        ghost = kernel_element(rep, int(rng.integers(1, 2**31)))
        worst_invariance = max(worst_invariance, _dev(quantize_sampled(sym + ghost), base))
        while True:
            bump = _random_grid(rng, side)
            if _dev(delta(SampledSymbol(bump, rep))) > 1e-2:
                break
        bump /= np.linalg.norm(bump)
        moved = quantize_sampled(sym + SampledSymbol(bump, rep))
        smallest_change = min(smallest_change, _dev(moved, base))
    return [
        ("dimensions with a wrong rank", wrong_ranks, "==", 0),
        ("kernel invariance", worst_invariance, "<", 1e-10),
        ("min unit-perturbation response", smallest_change, ">", 1e-6),
    ]


def _row_fft_reading(grid: np.ndarray) -> np.ndarray:
    """The operator of a grid read off a 2N-point FFT of each row, indices mod 2N:
    (1 / 2N) [F2 a(j + n, j - n) + F2 a(j + n + N, j - n + N)] in row n, column j."""
    side = len(grid)
    dim = side // 2
    f2 = np.fft.fft(grid, axis=1)
    n, j = np.arange(dim)[:, None], np.arange(dim)
    return (f2[(j + n) % side, (j - n) % side] + f2[(j + n + dim) % side, (j - n + dim) % side]) / side


def _criterion_reduced_inversion(rng):
    """Rebuilding the operator from the reduced symbol equals the 2N-point row-FFT reading
    of the grid, an independent form of the sampled quantization."""
    worst = 0.0
    for dim in range(1, 9):
        rep = _random_rep(rng, dim)
        for _ in range(20):
            sym = SampledSymbol(_random_grid(rng, 2 * dim), rep)
            worst = max(worst, _dev(operator_from_reduced(delta(sym)), _row_fft_reading(sym.grid)))
    return [("max inversion deviation for N=1..8", worst, "<", 1e-10)]


def _criterion_moyal_homomorphism(rng):
    """The Moyal product and bracket quantize to operator product and commutator."""
    worst = 0.0
    for dim in range(1, 7):
        rep = _random_rep(rng, dim)
        for _ in range(30):
            a = SampledSymbol(_random_grid(rng, 2 * dim), rep)
            b = SampledSymbol(_random_grid(rng, 2 * dim), rep)
            op_a = quantize_sampled(a)
            op_b = quantize_sampled(b)
            worst = max(
                worst,
                _dev(quantize_sampled(moyal_product(a, b)), op_a @ op_b),
                _dev(quantize_sampled(moyal_bracket(a, b)), op_a @ op_b - op_b @ op_a),
            )
    return [("max homomorphism defect, 30 pairs per N=1..6", worst, "<", 1e-9)]


def _criterion_semiclassical_order(rng):
    """The scaled Moyal bracket approaches the Poisson bracket at rate 1/N^2."""
    smooth_a = TrigPolynomial({(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25, (0, -1): 0.25})
    smooth_b = TrigPolynomial({(0, 1): 0.5, (0, -1): 0.5, (1, 1): 0.2, (-1, -1): 0.2})
    residuals = {
        dim: semiclassical_residual(smooth_a, smooth_b, _random_rep(rng, dim))
        for dim in (4, 8, 16)
    }
    ratios = (residuals[8] / residuals[4], residuals[16] / residuals[8])

    wave_a = TrigPolynomial({(1, 0): 1.0})
    wave_b = TrigPolynomial({(0, 1): 1.0})
    closed_dev = 0.0
    for dim in (4, 8, 16):
        measured = semiclassical_residual(wave_a, wave_b, _random_rep(rng, dim))
        x = math.pi / dim
        expected = 4 * math.pi**2 * abs(1.0 - math.sin(x) / x)
        closed_dev = max(closed_dev, abs(measured - expected))
    return [
        ("refinement ratios", ratios, "in", (0.15, 0.35)),
        ("closed-form deviation", closed_dev, "<", 1e-10),
    ]


def _criterion_wigner_identities(rng):
    """Mass, marginals, symmetries, reality, pairing and the Fourier-Wigner
    relation for random state pairs."""
    worst_mass = worst_marg = worst_sym = worst_real = worst_pair = worst_fw = 0.0
    for dim in range(1, 7):
        side = 2 * dim
        for _ in range(50):
            rep = _random_rep(rng, dim)
            psi = _random_state(rng, dim)
            phi = _random_state(rng, dim)
            table = wigner_state(rep, psi, phi)

            worst_mass = max(worst_mass, _dev(table.grid.sum(), np.vdot(psi, phi)))

            mx = marginal_x(table)
            mp = marginal_p(table)
            worst_marg = max(
                worst_marg,
                _dev(mx[1::2]),
                _dev(mp[1::2]),
                _dev(mx[0::2], np.conj(psi) * phi),
                _dev(mp[0::2], np.conj(np.fft.fft(psi)) * np.fft.fft(phi) / dim),
            )

            worst_sym = max(worst_sym, check_symmetries(table))
            worst_real = max(worst_real, _dev(wigner_state(rep, psi, psi).grid.imag))

            sym = SampledSymbol(_random_grid(rng, side), rep)
            expected = np.vdot(psi, quantize_sampled(sym) @ phi)
            worst_pair = max(worst_pair, _dev(pairing(sym, psi, phi), expected))

            flipped = psi[(dim - np.arange(dim)) % dim]
            ghost_table = wigner_state(rep, flipped, phi).grid
            for k in range(side):
                for m in range(side):
                    lhs = fourier_wigner(rep, psi, phi, k, m)
                    phase = np.exp(2j * np.pi * (k * rep.theta1 + m * rep.theta2) / dim)
                    worst_fw = max(worst_fw, abs(lhs - side * ghost_table[m, (-k) % side] * phase))
    return [
        ("mass", worst_mass, "<", 1e-12),
        ("marginals", worst_marg, "<", 1e-13),
        ("symmetries", worst_sym, "==", 0.0),
        ("reality", worst_real, "<", 1e-13),
        ("pairing", worst_pair, "<", 1e-10),
        ("fourier-wigner", worst_fw, "<", 1e-11),
    ]


def _criterion_dequantize_roundtrip(rng):
    """Quantizing the canonical symbol returns the operator; folds are preserved."""
    worst_round = 0.0
    worst_fold = 0.0
    for dim in range(1, 9):
        rep = _random_rep(rng, dim)
        for _ in range(50):
            operator = _random_grid(rng, dim)
            symbol = dequantize(rep, operator)
            worst_round = max(worst_round, _dev(quantize_sampled(symbol), operator))
        for _ in range(10):
            sym = SampledSymbol(_random_grid(rng, 2 * dim), rep)
            refolded = delta(dequantize(rep, quantize_sampled(sym)))
            worst_fold = max(worst_fold, _dev(refolded, delta(sym)))
    return [
        ("round trip for N=1..8", worst_round, "<", 1e-10),
        ("fold consistency for N=1..8", worst_fold, "<", 1e-10),
    ]


def _criterion_pauli_basis(rng):
    """The generalized Pauli matrices span, obey exact sign laws, and match
    their trig polynomial symbols."""
    wrong_ranks = 0
    sign_dev = 0.0
    worst_symbol = 0.0
    for dim in range(1, 6):
        rep = _random_rep(rng, dim)
        side = 2 * dim
        basis = np.array([big_pauli(rep, r, s).ravel() for r in range(dim) for s in range(dim)])
        wrong_ranks += int(np.linalg.matrix_rank(basis)) != dim * dim
        for r in range(side):
            for s in range(side):
                b = big_pauli(rep, r, s)
                r_far, s_far = (r + dim) % side, (s + dim) % side
                sign_dev = max(
                    sign_dev,
                    _dev(big_pauli(rep, r_far, s), (-1.0) ** s * b),
                    _dev(big_pauli(rep, r, s_far), (-1.0) ** r * b),
                    _dev(big_pauli(rep, r_far, s_far), (-1.0) ** (r + s + dim) * b),
                )
                worst_symbol = max(
                    worst_symbol, _dev(quantize_fourier(big_pauli_symbol(rep, r, s), rep), b)
                )
    return [
        ("dimensions with a wrong rank", wrong_ranks, "==", 0),
        ("sign-law deviation", sign_dev, "==", 0.0),
        ("symbol route for N=1..5", worst_symbol, "<", 1e-10),
    ]


def _criterion_dynamics(rng):
    """Symbol-side RK4 tracks the exact Heisenberg evolution at fourth order."""
    hamiltonian = TrigPolynomial({(1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0.1, (0, -1): 0.1})
    worst_defect = 0.0
    worst_eig = 0.0
    ratios = []
    for dim in (1, 2, 3, 4):
        rep = _random_rep(rng, dim)
        system = HamiltonianSystem(sample(hamiltonian, rep))
        start = SampledSymbol(_random_grid(rng, 2 * dim), rep)
        exact = evolve_operator(system, quantize_sampled(start), 1.0)
        defect_fine = _dev(quantize_sampled(evolve_symbol(system, start, 1.0, 1000)), exact)
        worst_defect = max(worst_defect, defect_fine)
        if dim >= 2:
            coarse = quantize_sampled(evolve_symbol(system, start, 1.0, 500))
            ratios.append(_dev(coarse, exact) / defect_fine)

        raw = _random_grid(rng, dim)
        hermitian = raw + raw.conj().T
        evolved = evolve_operator(system, hermitian, 0.37)
        worst_eig = max(worst_eig, _dev(np.linalg.eigvalsh(evolved), np.linalg.eigvalsh(hermitian)))
    return [
        ("defect", worst_defect, "<", 1e-6),
        ("halving ratios", tuple(ratios), "in", (10.0, 24.0)),
        ("eigenvalue drift", worst_eig, "<", 1e-10),
    ]


def _criterion_representation_laws(rng):
    """All five group identities hold across dimensions and random exponents."""
    worst = 0.0
    for dim in range(1, 7):
        rep = _random_rep(rng, dim)
        tuples = [tuple(int(v) for v in row) for row in rng.integers(-10, 11, size=(200, 4))]
        worst = max(worst, max(check_representation_laws(rep, tuples).values()))
    return [("max law deviation over 200 tuples per N=1..6", worst, "<", 1e-11)]


CRITERIA = tuple(
    (number, name, _judged(criterion))
    for number, name, criterion in (
        (1, "pauli-wigner-tables", _criterion_pauli_tables),
        (2, "generator-dictionary", _criterion_generator_dictionary),
        (3, "quantization-route-equivalence", _criterion_route_equivalence),
        (4, "fold-kernel-and-equivalence", _criterion_fold_kernel),
        (5, "reduced-symbol-inversion", _criterion_reduced_inversion),
        (6, "moyal-homomorphism", _criterion_moyal_homomorphism),
        (7, "semiclassical-order", _criterion_semiclassical_order),
        (8, "wigner-identities", _criterion_wigner_identities),
        (9, "dequantize-roundtrip", _criterion_dequantize_roundtrip),
        (10, "generalized-pauli-basis", _criterion_pauli_basis),
        (11, "heisenberg-dynamics", _criterion_dynamics),
        (12, "representation-laws", _criterion_representation_laws),
    )
)


def run(seed: int = DEFAULT_SEED) -> list:
    """Run every criterion with per-criterion generators derived from seed."""
    results = []
    for number, name, fn in CRITERIA:
        rng = np.random.default_rng((seed, number))
        passed, detail = fn(rng)
        results.append(CriterionResult(number, name, passed, detail))
    return results


def format_result(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"[{result.number:02d}] {status} {result.name}: {result.detail}"
