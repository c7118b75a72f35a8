import numpy as np
import pytest

from torusq import (
    DimensionError,
    DomainError,
    HamiltonianSystem,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    delta,
    dequantize,
    equivalent,
    evolve_operator,
    evolve_symbol,
    kernel_element,
    moyal_bracket,
    moyal_product,
    poisson_bracket,
    quantize_sampled,
    sample,
    semiclassical_residual,
)
from torusq.moyal import _block_picks, _from_blocks, _to_blocks


def reference_product(a, b, n):
    # literal four-fold sum, only usable for tiny N
    side = 2 * n
    shifts = np.arange(side)
    out = np.zeros((side, side), dtype=complex)
    for j in range(side):
        for k in range(side):
            acc = 0j
            for r in shifts:
                for s in shifts:
                    for u in shifts:
                        for v in shifts:
                            phase = np.exp(1j * np.pi * (r * v - u * s) / n)
                            acc += a[(j + r) % side, (k + s) % side] * b[(j + u) % side, (k + v) % side] * phase
            out[j, k] = acc / side**2
    return out


def reference_bracket(a, b, n):
    side = 2 * n
    shifts = np.arange(side)
    out = np.zeros((side, side), dtype=complex)
    for j in range(side):
        for k in range(side):
            acc = 0j
            for r in shifts:
                for s in shifts:
                    for u in shifts:
                        for v in shifts:
                            kern = np.sin(np.pi * (r * v - u * s) / n)
                            acc += a[(j + r) % side, (k + s) % side] * b[(j + u) % side, (k + v) % side] * kern
            out[j, k] = 2j * acc / side**2
    return out


def random_symbol(rng, rep):
    side = 2 * rep.dim
    grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return SampledSymbol(grid, rep)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_product_matches_literal_sum(dim):
    rng = np.random.default_rng(100 + dim)
    rep = Representation(0.3, 0.7, dim)
    a = random_symbol(rng, rep)
    b = random_symbol(rng, rep)
    direct = reference_product(a.grid, b.grid, dim)
    assert np.max(np.abs(moyal_product(a, b).grid - direct)) < 1e-11


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_bracket_matches_literal_sum(dim):
    rng = np.random.default_rng(200 + dim)
    rep = Representation(0.1, 0.9, dim)
    a = random_symbol(rng, rep)
    b = random_symbol(rng, rep)
    direct = reference_bracket(a.grid, b.grid, dim)
    assert np.max(np.abs(moyal_bracket(a, b).grid - direct)) < 1e-11


def reference_product_entry(a, b, j, k):
    """(a # b)(j, k) from the same four-fold sum in O(N^3): with both grids rolled so that
    entry (j, k) comes first and E[x, y] = exp(i pi x y / N), it is sum A o (E B^T conj(E)) / (2N)^2."""
    side = len(a)
    x = np.arange(side)
    e = np.exp(1j * np.pi * (np.outer(x, x) % side) / (side // 2))
    rolled_a, rolled_b = (np.roll(g, (-j, -k), axis=(0, 1)) for g in (a, b))
    return np.sum(rolled_a * (e @ rolled_b.T @ e.conj())) / side**2


# Over these seeds and 19 others per N, both gaps measured at most 9.6e-16 of the largest
# entry of a # b (the bracket is exactly 0 at N = 1, so it is no scale); a margin of 10.
ENTRY_BOUND = 1e-14


@pytest.mark.parametrize("dim", [1, 4, 7, 32, 128])
def test_product_and_bracket_entries_match_the_literal_sum(dim):
    rng = np.random.default_rng(400 + dim)
    rep = Representation(0.6, 0.2, dim)
    a, b = random_symbol(rng, rep), random_symbol(rng, rep)
    product, bracket = moyal_product(a, b).grid, moyal_bracket(a, b).grid
    scale = float(np.max(np.abs(product)))
    for j, k in rng.integers(0, 2 * dim, (16, 2)):
        ab, ba = reference_product_entry(a.grid, b.grid, j, k), reference_product_entry(b.grid, a.grid, j, k)
        assert abs(product[j, k] - ab) < ENTRY_BOUND * scale
        assert abs(bracket[j, k] - (ab - ba)) < ENTRY_BOUND * scale


def shifted_quantization(a, c):
    """Q_c(a) = quantize_sampled(a(. + c)), the quantization of the grid shifted by c."""
    return quantize_sampled(SampledSymbol(np.roll(a.grid, (-c[0], -c[1]), axis=(0, 1)), a.rep))


def from_shifted_operators(operators, rep):
    """The grid whose four shifted quantizations Q_c are operators[c]: each operator's
    canonical symbol shifted back by c, summed over c in {0, 1}^2."""
    return sum(np.roll(dequantize(rep, op).grid, c, axis=(0, 1)) for c, op in operators.items())


# The whole grids of a # b and {a, b} against the maps that define them: a grid is fixed by its
# four shifted quantizations, which turn # into the operator product.  Over the seeds below
# and seven others per N (two at N = 128) both gaps measured at most 1.15e-15 of the largest
# entry of a # b, so FULL_GRID_BOUND = 1e-14 leaves a margin of about 9.
FULL_GRID_BOUND = 1e-14
SHIFTS = ((0, 0), (1, 0), (0, 1), (1, 1))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 32, 128])
def test_product_and_bracket_grids_match_the_shifted_quantizations(dim):
    rng = np.random.default_rng(600 + dim)
    rep = Representation(0.45, 0.15, dim)
    a, b = random_symbol(rng, rep), random_symbol(rng, rep)
    qa, qb = ({c: shifted_quantization(x, c) for c in SHIFTS} for x in (a, b))
    product = from_shifted_operators({c: qa[c] @ qb[c] for c in SHIFTS}, rep)
    bracket = from_shifted_operators({c: qa[c] @ qb[c] - qb[c] @ qa[c] for c in SHIFTS}, rep)
    scale = float(np.max(np.abs(product)))
    assert float(np.max(np.abs(moyal_product(a, b).grid - product))) < FULL_GRID_BOUND * scale
    assert float(np.max(np.abs(moyal_bracket(a, b).grid - bracket))) < FULL_GRID_BOUND * scale


def test_product_quantizes_to_operator_product():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3, 4, 5):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        a = random_symbol(rng, rep)
        b = random_symbol(rng, rep)
        left = quantize_sampled(moyal_product(a, b))
        right = quantize_sampled(a) @ quantize_sampled(b)
        assert np.max(np.abs(left - right)) < 1e-9


def test_bracket_quantizes_to_commutator():
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3, 4):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        a = random_symbol(rng, rep)
        b = random_symbol(rng, rep)
        left = quantize_sampled(moyal_bracket(a, b))
        qa, qb = quantize_sampled(a), quantize_sampled(b)
        assert np.max(np.abs(left - (qa @ qb - qb @ qa))) < 1e-9


def test_plane_wave_product_value():
    # exp(2 i pi x) # exp(2 i pi p) picks up the phase exp(-i pi / N)
    for dim in (1, 2, 3, 5):
        rep = Representation(0.0, 0.0, dim)
        a = sample(TrigPolynomial({(1, 0): 1.0}), rep)
        b = sample(TrigPolynomial({(0, 1): 1.0}), rep)
        expected = np.exp(-1j * np.pi / dim) * sample(TrigPolynomial({(1, 1): 1.0}), rep).grid
        assert np.max(np.abs(moyal_product(a, b).grid - expected)) < 1e-12


def test_plane_wave_bracket_value():
    for dim in (1, 2, 3, 5):
        rep = Representation(0.25, 0.5, dim)
        a = sample(TrigPolynomial({(1, 0): 1.0}), rep)
        b = sample(TrigPolynomial({(0, 1): 1.0}), rep)
        expected = -2j * np.sin(np.pi / dim) * sample(TrigPolynomial({(1, 1): 1.0}), rep).grid
        assert np.max(np.abs(moyal_bracket(a, b).grid - expected)) < 1e-12


def test_bracket_is_antisymmetrized_product():
    rng = np.random.default_rng(9)
    rep = Representation(0.4, 0.6, 4)
    a = random_symbol(rng, rep)
    b = random_symbol(rng, rep)
    direct = moyal_bracket(a, b).grid
    via_products = moyal_product(a, b).grid - moyal_product(b, a).grid
    scale = np.max(np.abs(direct)) + 1.0
    assert np.max(np.abs(direct - via_products)) < 1e-12 * scale


def test_bracket_with_itself_vanishes():
    rng = np.random.default_rng(10)
    rep = Representation(0.2, 0.8, 3)
    a = random_symbol(rng, rep)
    scale = np.max(np.abs(a.grid)) ** 2 + 1.0
    assert np.max(np.abs(moyal_bracket(a, a).grid)) < 1e-13 * scale


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
def test_bracket_with_itself_is_exactly_zero(dim):
    rng = np.random.default_rng(20 + dim)
    a = random_symbol(rng, Representation(0.6, 0.1, dim))
    assert np.array_equal(moyal_bracket(a, a).grid, np.zeros((2 * dim, 2 * dim)))


@pytest.mark.parametrize("dim", [32, 128])
def test_homomorphism_at_large_dimension(dim):
    rng = np.random.default_rng(15)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    a = random_symbol(rng, rep)
    b = random_symbol(rng, rep)
    qa, qb = quantize_sampled(a), quantize_sampled(b)
    assert np.max(np.abs(quantize_sampled(moyal_product(a, b)) - qa @ qb)) < 1e-9
    assert np.max(np.abs(quantize_sampled(moyal_bracket(a, b)) - (qa @ qb - qb @ qa))) < 1e-9


@pytest.mark.parametrize("dim", range(1, 9))
def test_constant_is_central(dim):
    rng = np.random.default_rng(11)
    rep = Representation(0.5, 0.5, dim)
    one = sample(TrigPolynomial({(0, 0): 1.0}), rep)
    a = random_symbol(rng, rep)
    assert np.max(np.abs(moyal_product(one, a).grid - a.grid)) < 1e-12
    assert np.max(np.abs(moyal_product(a, one).grid - a.grid)) < 1e-12
    assert np.max(np.abs(moyal_bracket(one, a).grid)) < 1e-12


# Grid-level laws of # and {,} at larger N.  Each deviation is taken relative to the
# largest entry of the grids it compares; over the seeds below and five others it measured
# at most 6.5e-16 (associativity), 4.8e-16 (adjoint), 8.5e-16 (Jacobi) and 4.6e-16 (unit;
# {1, a} read 0), so the bound LAWS_BOUND = 1e-14 leaves a margin of more than 10.
LAWS_BOUND = 1e-14


def _relative_gap(*pairs) -> float:
    return max(float(np.max(np.abs(x - y))) / float(np.max(np.abs(x))) for x, y in pairs)


@pytest.mark.parametrize("dim", [8, 32])
def test_product_is_associative_and_conjugation_reverses_it(dim):
    rng = np.random.default_rng(300 + dim)
    rep = Representation(0.35, 0.85, dim)
    a, b, c = (random_symbol(rng, rep) for _ in range(3))
    ab = moyal_product(a, b)
    left, right = moyal_product(ab, c), moyal_product(a, moyal_product(b, c))
    reversed_conjugates = moyal_product(SampledSymbol(np.conj(b.grid), rep), SampledSymbol(np.conj(a.grid), rep))
    assert _relative_gap((left.grid, right.grid), (np.conj(ab.grid), reversed_conjugates.grid)) < LAWS_BOUND


@pytest.mark.parametrize("dim", [8, 32])
def test_bracket_satisfies_the_jacobi_identity(dim):
    rng = np.random.default_rng(400 + dim)
    rep = Representation(0.15, 0.45, dim)
    a, b, c = (random_symbol(rng, rep) for _ in range(3))
    terms = [moyal_bracket(x, moyal_bracket(y, z)).grid for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
    scale = max(float(np.max(np.abs(term))) for term in terms)
    assert float(np.max(np.abs(sum(terms)))) < LAWS_BOUND * scale


@pytest.mark.parametrize("dim", [8, 32])
def test_constant_one_is_the_unit(dim):
    rng = np.random.default_rng(500 + dim)
    rep = Representation(0.5, 0.5, dim)
    one = sample(TrigPolynomial({(0, 0): 1.0}), rep)
    a = random_symbol(rng, rep)
    assert _relative_gap((a.grid, moyal_product(one, a).grid), (a.grid, moyal_product(a, one).grid)) < LAWS_BOUND
    assert float(np.max(np.abs(moyal_bracket(one, a).grid))) < LAWS_BOUND * float(np.max(np.abs(a.grid)))


def test_theta_independence():
    rng = np.random.default_rng(12)
    side = 6
    raw_a = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    raw_b = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    rep1 = Representation(0.0, 0.0, 3)
    rep2 = Representation(0.37, 0.81, 3)
    p1 = moyal_product(SampledSymbol(raw_a, rep1), SampledSymbol(raw_b, rep1)).grid
    p2 = moyal_product(SampledSymbol(raw_a, rep2), SampledSymbol(raw_b, rep2)).grid
    assert np.array_equal(p1, p2)
    b1 = moyal_bracket(SampledSymbol(raw_a, rep1), SampledSymbol(raw_b, rep1)).grid
    b2 = moyal_bracket(SampledSymbol(raw_a, rep2), SampledSymbol(raw_b, rep2)).grid
    assert np.array_equal(b1, b2)


def test_bilinearity():
    rng = np.random.default_rng(13)
    rep = Representation(0.3, 0.4, 2)
    a = random_symbol(rng, rep)
    b = random_symbol(rng, rep)
    c = random_symbol(rng, rep)
    lam = 0.7 - 1.3j
    combo = moyal_product(a + b * lam, c).grid
    split = moyal_product(a, c).grid + lam * moyal_product(b, c).grid
    assert np.max(np.abs(combo - split)) < 1e-12


# Every operation on two symbols; each refuses a representation mismatch.
PAIRWISE = (
    moyal_product,
    moyal_bracket,
    lambda a, b: a + b,
    lambda a, b: a - b,
    equivalent,
    lambda a, b: evolve_symbol(HamiltonianSystem(SampledSymbol(a.grid.real, a.rep)), b, 0.1, 2),
)


def test_rep_mismatch_rejected():
    rng = np.random.default_rng(14)
    a = random_symbol(rng, Representation(0.1, 0.2, 2))
    for operation in PAIRWISE:
        for other in (Representation(0.1, 0.2, 3), Representation(0.3, 0.2, 2)):
            with pytest.raises(DimensionError, match="different representations"):
                operation(a, random_symbol(rng, other))
        # The same operation accepts a pair in one representation.
        operation(a, random_symbol(rng, a.rep))


def test_poisson_bracket_plane_waves():
    a = TrigPolynomial({(1, 0): 1.0})
    b = TrigPolynomial({(0, 1): 1.0})
    coeffs = poisson_bracket(a, b).coefficients()
    assert set(coeffs) == {(1, 1)}
    assert abs(coeffs[(1, 1)] + 4 * np.pi**2) < 1e-12
    assert len(poisson_bracket(a, a)) == 0


def test_poisson_bracket_scales_with_the_wedge():
    # {exp(2 i pi n.(x, p)), exp(2 i pi m.(x, p))} = -4 pi^2 (n1 m2 - n2 m1) exp(2 i pi (n + m).(x, p)).
    a = TrigPolynomial({(2, 1): 0.5, (0, 3): -1.5j})
    b = TrigPolynomial({(-1, 3): 2j})
    coeffs = poisson_bracket(a, b).coefficients()
    assert set(coeffs) == {(1, 4), (-1, 6)}
    assert abs(coeffs[(1, 4)] - (-4 * np.pi**2 * 7 * 0.5 * 2j)) < 1e-12
    assert abs(coeffs[(-1, 6)] - (-4 * np.pi**2 * 3 * -1.5j * 2j)) < 1e-12


def test_semiclassical_residual_closed_form():
    a = TrigPolynomial({(1, 0): 1.0})
    b = TrigPolynomial({(0, 1): 1.0})
    for dim in (1, 2, 4, 8):
        rep = Representation(0.0, 0.0, dim)
        expected = 4 * np.pi**2 * abs(1.0 - np.sinc(1.0 / dim))
        assert abs(semiclassical_residual(a, b, rep) - expected) < 1e-10


def test_semiclassical_residual_decay():
    a = TrigPolynomial({(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.25, (0, -1): 0.25})
    b = TrigPolynomial({(0, 1): 0.5, (0, -1): 0.5, (1, 1): 0.2, (-1, -1): 0.2})
    values = {dim: semiclassical_residual(a, b, Representation(0.0, 0.0, dim)) for dim in (4, 8, 16)}
    assert 0.15 < values[8] / values[4] < 0.35
    assert 0.15 < values[16] / values[8] < 0.35


def test_hamiltonian_system_validation():
    rep = Representation(0.0, 0.0, 2)
    grid = np.ones((4, 4), dtype=complex)
    grid[1, 2] = 1.0 + 0.5j
    with pytest.raises(DomainError):
        HamiltonianSystem(SampledSymbol(grid, rep))
    energy = sample(TrigPolynomial({(1, 0): 1.0, (-1, 0): 1.0}), rep)
    system = HamiltonianSystem(energy)
    assert system.rep is energy.rep
    # The representation is the Hamiltonian's, so a second one is no parameter.
    with pytest.raises(TypeError):
        HamiltonianSystem(energy, Representation(0.5, 0.0, 2))


def test_hamiltonian_grid_whose_modulus_overflows_is_refused():
    # Finite parts whose modulus overflows: the imaginary part is as large as the real one.
    grid = np.array([[1j, 0], [1.5e308 * (1 + 1j), 1.5e308 * (1 + 1j)]])
    with pytest.raises(DomainError, match="Hamiltonian grid must be real"):
        HamiltonianSystem(SampledSymbol(grid, Representation(0, 0, 1)))


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def spin_system():
    # cos(2 pi x) at theta = 0, N = 2 quantizes to sigma_z
    rep = Representation(0.0, 0.0, 2)
    energy = sample(TrigPolynomial({(1, 0): 0.5, (-1, 0): 0.5}), rep)
    return HamiltonianSystem(energy)


def generic_system(dim, seed):
    rng = np.random.default_rng(seed)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    energy = TrigPolynomial({(1, 0): 0.3, (-1, 0): 0.3, (0, 1): 0.15, (0, -1): 0.15})
    return HamiltonianSystem(sample(energy, rep)), rng


def dense_system(dim, seed):
    """A real random grid: every lattice mode is present."""
    rng = np.random.default_rng(seed)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    energy = 0.3 * rng.standard_normal((2 * dim, 2 * dim))
    return HamiltonianSystem(SampledSymbol(energy + 0j, rep)), rng


def test_zero_time_is_identity():
    system, rng = generic_system(3, 21)
    dim = system.rep.dim
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert np.max(np.abs(evolve_operator(system, a, 0.0) - a)) < 1e-14


def test_spectrum_preserved():
    system, rng = generic_system(4, 22)
    dim = system.rep.dim
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = raw + raw.conj().T
    before = np.linalg.eigvalsh(a)
    after = np.linalg.eigvalsh(evolve_operator(system, a, 0.83))
    assert np.max(np.abs(before - after)) < 1e-10


def test_flow_is_additive():
    system, rng = generic_system(3, 23)
    dim = system.rep.dim
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    once = evolve_operator(system, a, 0.9)
    twice = evolve_operator(system, evolve_operator(system, a, 0.4), 0.5)
    assert np.max(np.abs(once - twice)) < 1e-10


def test_operator_shape_checked():
    system, _ = generic_system(3, 24)
    with pytest.raises(DimensionError):
        evolve_operator(system, np.eye(2), 0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.inf)])
def test_non_finite_operator_is_refused(value):
    system, _ = generic_system(3, 25)
    op = np.eye(3, dtype=complex)
    op[0, 1] = value
    with pytest.raises(DomainError, match="operator entries must be finite"):
        evolve_operator(system, op, 0.1)


def test_symbol_steps_validated():
    system, rng = generic_system(2, 25)
    a = SampledSymbol(rng.standard_normal((4, 4)) + 0j, system.rep)
    for steps in (0, -2, 2.7, 3.0, True, "4", 10**400):
        with pytest.raises(DomainError):
            evolve_symbol(system, a, 1.0, steps)
    by_numpy_int = evolve_symbol(system, a, 0.1, np.int64(3)).grid
    assert np.array_equal(by_numpy_int, evolve_symbol(system, a, 0.1, 3).grid)


def test_symbol_zero_time_unchanged():
    # At dt = 0 every factor R(z)^steps - 1 is exactly zero.
    for make_system in (generic_system, dense_system):
        system, rng = make_system(2, 26)
        a = SampledSymbol(rng.standard_normal((4, 4)) + 0j, system.rep)
        out = evolve_symbol(system, a, 0.0, 5)
        assert np.array_equal(out.grid, a.grid)


def test_constant_hamiltonian_freezes_everything():
    rep = Representation(0.2, 0.9, 3)
    system = HamiltonianSystem(sample(TrigPolynomial({(0, 0): 2.5}), rep))
    rng = np.random.default_rng(27)
    a = SampledSymbol(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), rep)
    out = evolve_symbol(system, a, 0.7, 40)
    assert np.max(np.abs(out.grid - a.grid)) < 1e-10


def test_spin_precession_operator():
    # A(t) = exp(4 i pi t sz) sx exp(-4 i pi t sz) rotates with period 1/4;
    # at t = 1/8 the x axis maps to its negative
    system = spin_system()
    assert np.max(np.abs(system.operator() - np.diag([1.0, -1.0]))) < 1e-14
    out = evolve_operator(system, SX, 0.125)
    assert np.max(np.abs(out + SX)) < 1e-10
    quarter = evolve_operator(system, SX, 1.0 / 16.0)
    assert np.max(np.abs(quarter + SY)) < 1e-10


def test_spin_precession_symbol_route():
    system = spin_system()
    start = dequantize(system.rep, SX)
    out = evolve_symbol(system, start, 0.125, 400)
    assert np.max(np.abs(quantize_sampled(out) + SX)) < 1e-6


# At N = 7 the four-mode generator is about twice as large as at N = 3, so it
# takes twice the steps.
@pytest.mark.parametrize(("dim", "steps"), [(3, 800), (7, 1600)])
def test_symbol_flow_tracks_operator_flow(dim, steps):
    for make_system in (generic_system, dense_system):
        system, rng = make_system(dim, 28)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = 0.6
        exact = evolve_operator(system, a, t)
        stepped = quantize_sampled(evolve_symbol(system, dequantize(system.rep, a), t, steps))
        assert np.max(np.abs(stepped - exact)) < 1e-6


@pytest.mark.parametrize("dim", [2, 7])
def test_step_refinement_is_fourth_order(dim):
    for make_system in (generic_system, dense_system):
        system, rng = make_system(dim, 29)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = 1.0
        exact = evolve_operator(system, a, t)
        start = dequantize(system.rep, a)

        def defect(steps):
            return np.max(np.abs(quantize_sampled(evolve_symbol(system, start, t, steps)) - exact))

        ratio = defect(100) / defect(200)
        assert 10.0 < ratio < 24.0


def test_energy_expectation_stays_real():
    system, rng = generic_system(3, 30)
    dim = system.rep.dim
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = raw + raw.conj().T
    h = system.operator()
    for t in (0.0, 0.3, 1.7):
        value = np.trace(h @ evolve_operator(system, a, t))
        assert abs(value.imag) < 1e-8 * (abs(value) + 1.0)


# The bracket as a twisted convolution over the Fourier support of H: the
# plane waves e_m(j, k) = exp(i pi (m1 j + m2 k) / N) multiply as
# e_m # e_n = exp(i pi (n1 m2 - n2 m1) / N) e_{m+n}, so with hats for fft2
# fft2({H, a})[p] = (2i/(2N)^2) sum_m H^_m sin(pi (p1 m2 - p2 m1) / N) a^[p - m].


def sparse_real_hamiltonian(rng, dim, modes, central=True):
    """Real grid whose spectrum has exactly `modes` nonzero entries, starting
    with the Nyquist pair (N, 1), (N, -1) where that pair is not central.
    Pairs -m, m come first; an odd count ends on a central mode (m1, m2 in
    {0, N}, its own conjugate), which `central=False` refuses."""
    side = 2 * dim
    conjugate = {(m1, m2): ((-m1) % side, (-m2) % side) for m1 in range(side) for m2 in range(side)}
    pairs = [m for m, c in conjugate.items() if m < c]
    singles = [m for m, c in conjugate.items() if m == c] if central else []
    rng.shuffle(pairs)
    rng.shuffle(singles)
    if (dim, 1) in pairs:
        pairs.remove((dim, 1))
        pairs.insert(0, (dim, 1))
    spectrum = np.zeros((side, side), dtype=complex)
    for mode in pairs[: modes // 2]:
        value = rng.standard_normal() + 1j * rng.standard_normal()
        spectrum[mode] = value
        spectrum[conjugate[mode]] = np.conj(value)
    for mode in singles[: modes - 2 * len(pairs[: modes // 2])]:
        spectrum[mode] = rng.standard_normal()
    assert np.count_nonzero(spectrum) == modes
    return np.fft.ifft2(spectrum).real * side


def twisted_bracket(energy, grid, dim):
    """{H, a} by the twisted convolution, summed over every lattice mode m."""
    side = 2 * dim
    energy_hat, grid_hat = np.fft.fft2(energy), np.fft.fft2(grid)
    p1, p2 = np.arange(side)[:, None], np.arange(side)
    total = np.zeros((side, side), dtype=complex)
    for m1 in range(side):
        for m2 in range(side):
            sine = np.sin(np.pi * (p1 * m2 - p2 * m1) / dim)
            total += energy_hat[m1, m2] * sine * np.roll(grid_hat, (m1, m2), axis=(0, 1))
    return np.fft.ifft2((2j / side**2) * total)


def assert_bracket_is_twisted(energy, grid, dim):
    rep = Representation(0.0, 0.0, dim)
    expected = moyal_bracket(SampledSymbol(energy, rep), SampledSymbol(grid, rep)).grid
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(twisted_bracket(energy, grid, dim) - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("dim", range(1, 9))
def test_bracket_matches_twisted_convolution(dim):
    # moyal_bracket against the twisted convolution, for 1 to 4N + 1 modes of H.
    rng = np.random.default_rng(300 + dim)
    side = 2 * dim
    for modes in range(1, min(4 * dim + 1, side * side) + 1):
        energy = sparse_real_hamiltonian(rng, dim, modes)
        grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        assert_bracket_is_twisted(energy, grid, dim)


@pytest.mark.parametrize("dim", range(1, 9))
def test_bracket_matches_twisted_convolution_on_aliased_frequencies(dim):
    # moyal_bracket against the twisted convolution, on trig frequencies
    # (2N+1, 3) and (1, 3 + 2N) that alias to the lattice mode (1, 3) mod 2N
    rng = np.random.default_rng(400 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    side = 2 * dim
    energy = sample(
        TrigPolynomial({
            (side + 1, 3): 0.4, (-side - 1, -3): 0.4,
            (1, 3 + side): 0.25, (-1, -3 - side): 0.25,
            (dim, 1): 0.3, (-dim, -1): 0.3,
        }),
        rep,
    ).grid
    grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    assert_bracket_is_twisted(energy, grid, dim)


# evolve_symbol against RK4 steps over moyal_bracket, written out here.


def rk4_loop(system, start, t, steps):
    rate = 2j * np.pi * system.rep.dim
    energy = system.hamiltonian

    def rhs(grid):
        return rate * moyal_bracket(energy, SampledSymbol(grid, system.rep)).grid

    dt = t / steps
    y = start.grid
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def assert_matches_rk4_loop(system, start, t, steps):
    expected = rk4_loop(system, start, t, steps)
    out = evolve_symbol(system, start, t, steps).grid
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dim", range(1, 9))
def test_evolve_symbol_matches_rk4_loop(dim):
    # evolve_symbol, which takes the steps as the powers R(z)^steps, against
    # the RK4 loop over moyal_bracket.
    for make_system in (generic_system, dense_system):
        system, rng = make_system(dim, 700 + dim)
        assert_matches_rk4_loop(system, random_symbol(rng, system.rep), 0.5, 200)


@pytest.mark.parametrize("dim", [2, 3])
def test_symbol_flow_tracks_operator_flow_around_4n_modes(dim):
    # Around 4N modes: 4N + 1 modes with one central mode move like 4N, since
    # central modes commute with everything.  Moving modes come in pairs -m, m.
    rng = np.random.default_rng(500 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    for modes in (4 * dim, 4 * dim + 1, 4 * dim + 2):
        energy = 0.1 * sparse_real_hamiltonian(rng, dim, modes)
        system = HamiltonianSystem(SampledSymbol(energy, rep))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        exact = evolve_operator(system, a, 0.3)
        stepped = quantize_sampled(evolve_symbol(system, dequantize(rep, a), 0.3, 300))
        assert np.max(np.abs(stepped - exact)) < 1e-6


def test_evolve_symbol_matches_rk4_loop_at_large_dimension():
    # evolve_symbol at N = 64, for K = 6, N/2 and N/2 + 2 modes, against the
    # RK4 loop over moyal_bracket.
    dim = 64
    rng = np.random.default_rng(600)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    start = random_symbol(rng, rep)
    for modes in (6, dim // 2, dim // 2 + 2):
        energy = 0.1 * sparse_real_hamiltonian(rng, dim, modes, central=False)
        assert_matches_rk4_loop(HamiltonianSystem(SampledSymbol(energy, rep)), start, 0.01, 3)


@pytest.mark.parametrize("dim", range(1, 9))
def test_four_blocks_split_kernel_and_dequantized_grids(dim):
    # Fold kernel grids quantize to zero in block 0 and dequantized grids in
    # blocks 1-3, so the four blocks separate them.
    rng = np.random.default_rng(1000 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    kernel = kernel_element(rep, 1000 + dim)
    operator = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    canonical = dequantize(rep, operator)
    assert np.max(np.abs(shifted_quantization(kernel, (0, 0)))) <= 1e-12 * np.max(np.abs(kernel.grid))
    for c in ((1, 0), (0, 1), (1, 1)):
        assert np.max(np.abs(shifted_quantization(canonical, c))) <= 1e-12 * np.max(np.abs(canonical.grid))
    assert np.max(np.abs(shifted_quantization(canonical, (0, 0)) - operator)) <= 1e-12 * np.max(np.abs(operator))
    # The same split through the cached block transform, both ways.
    blocks = _to_blocks(canonical.grid)
    assert np.max(np.abs(blocks[0, 0] - operator)) <= 1e-12 * np.max(np.abs(operator))
    for c2, c1 in ((0, 1), (1, 0), (1, 1)):
        assert np.max(np.abs(blocks[c2, c1])) <= 1e-12 * np.max(np.abs(operator))
    blocks = rng.standard_normal((2, 2, dim, dim)) + 1j * rng.standard_normal((2, 2, dim, dim))
    blocks[0, 0] = 0
    unseen = SampledSymbol(_from_blocks(blocks), rep)
    assert np.max(np.abs(quantize_sampled(unseen))) <= 1e-12 * np.max(np.abs(blocks))
    assert np.max(np.abs(delta(unseen))) <= 1e-12 * np.max(np.abs(blocks))


@pytest.mark.parametrize("dim", range(1, 9))
def test_block_transform_matches_shifted_quantizations(dim):
    # The cached permutation against shifted_quantization(): the
    # c2 = 1 blocks are D Q_c D* with D = diag(exp(i pi j / N)).
    rng = np.random.default_rng(1100 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    side = 2 * dim
    grids = rng.standard_normal((2, side, side)) + 1j * rng.standard_normal((2, side, side))
    blocks = _to_blocks(grids)
    assert blocks.shape == (2, 2, 2, dim, dim)
    d = np.exp(1j * np.pi * np.arange(dim) / dim)
    for grid, stacked in zip(grids, blocks):
        for c1, c2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            expected = shifted_quantization(SampledSymbol(grid, rep), (c1, c2))
            if c2:
                expected = d[:, None] * expected * d.conj()
            assert np.max(np.abs(stacked[c2, c1] - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(_from_blocks(stacked) - grid)) <= 1e-14 * np.max(np.abs(grid))
    picks = _block_picks(dim)
    assert type(picks) is np.ndarray and picks.dtype == np.intp
    assert np.array_equal(np.sort(picks, axis=None), np.arange(side * side))
    assert not picks.flags.writeable
    assert _block_picks(dim) is picks


@pytest.mark.parametrize(
    "coefficients",
    [lambda dim: {}, lambda dim: {(0, 0): 2.5}, lambda dim: {
        (dim, 0): 0.7, (-dim, 0): 0.7, (dim, dim): 0.3, (-dim, -dim): 0.3, (0, 2 * dim): 0.2,
        (0, -2 * dim): 0.2,
    }],
    ids=["zero", "constant", "central"],
)
def test_central_hamiltonian_returns_start_exactly(coefficients):
    # Central modes (m1, m2 in {0, N} mod 2N) commute with every symbol.
    for dim in (2, 3, 7):
        rep = Representation(0.2, 0.9, dim)
        system = HamiltonianSystem(sample(TrigPolynomial(coefficients(dim)), rep))
        a = random_symbol(np.random.default_rng(31 + dim), rep)
        assert np.array_equal(evolve_symbol(system, a, 0.7, 40).grid, a.grid)


def test_hamiltonian_is_conserved():
    for make_system in (generic_system, dense_system):
        system, _ = make_system(4, 32)
        energy = system.hamiltonian
        out = evolve_symbol(system, energy, 1.3, 200)
        assert np.max(np.abs(out.grid - energy.grid)) < 1e-12


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 1j, 0.5 + 0j, "1", None, True, 10**400])
def test_time_must_be_finite_real(t):
    system, rng = generic_system(2, 33)
    a = SampledSymbol(rng.standard_normal((4, 4)) + 0j, system.rep)
    with pytest.raises(DomainError):
        evolve_symbol(system, a, t, 5)
    with pytest.raises(DomainError):
        evolve_operator(system, np.eye(2), t)


def test_operator_phases_must_stay_finite():
    system, _ = generic_system(2, 34)
    with pytest.raises(DomainError):
        evolve_operator(system, np.eye(2), 1e308)


def test_overflow_names_time_and_steps():
    for make_system in (generic_system, dense_system):
        system, rng = make_system(4, 35)
        a = SampledSymbol(rng.standard_normal((8, 8)) + 0j, system.rep)
        with np.errstate(all="ignore"), pytest.raises(DomainError, match=r"t=1e\+300 with steps=2"):
            evolve_symbol(system, a, 1e300, 2)


# RK4's stability limit: |R(iy)| <= 1 exactly when |y| <= 2 sqrt(2).


def stability_time(system, steps):
    """The t at which 2 pi N |t/steps| max_c (E_max - E_min) reaches 2 sqrt(2)."""
    spread = max(np.ptp(np.linalg.eigvalsh(shifted_quantization(system.hamiltonian, c))) for c in SHIFTS)
    return 2 * np.sqrt(2) * steps / (2 * np.pi * system.rep.dim * spread)


@pytest.mark.parametrize(
    ("factor", "refused"),
    [(1 - 1e-6, False), (1 + 1e-6, True)],
    ids=["inside-the-limit", "past-the-limit"],
)
def test_stability_limit(factor, refused):
    for make_system in (generic_system, dense_system):
        system, rng = make_system(4, 900)
        start = random_symbol(rng, system.rep)
        steps = 3
        t = float(factor * stability_time(system, steps))
        if refused:
            with pytest.raises(DomainError, match=rf"t={t!r} with steps=3 .*stability limit"):
                evolve_symbol(system, start, t, steps)
            continue
        # In the eigenbases every factor has modulus at most 1, so no block grows.
        before = np.linalg.norm(quantize_sampled(start))
        after = np.linalg.norm(quantize_sampled(evolve_symbol(system, start, t, steps)))
        assert after <= before * (1 + 1e-12)


@pytest.mark.parametrize("dim", [2, 6])
def test_million_steps_match_exact_flow(dim):
    # The step count only enters as an exponent, so 10**6 steps cost no more
    # than one; at dt = 1e-6 the RK4 error is far below rounding.
    for make_system in (generic_system, dense_system):
        system, rng = make_system(dim, 800 + dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        exact = evolve_operator(system, a, 1.0)
        stepped = quantize_sampled(evolve_symbol(system, dequantize(system.rep, a), 1.0, 10**6))
        assert np.max(np.abs(stepped - exact)) < 1e-10


def test_large_constant_leaves_the_flow_unchanged():
    # A constant commutes with every symbol, but its rounding reaches every
    # Fourier mode of the grid.  Kept in the blocks, that rounding would enter
    # the energy differences at about eps * 1e6; the mode threshold drops it.
    energy = {(1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0.1, (0, -1): 0.1}
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        rep = Representation(rng.uniform(), rng.uniform(), 16)
        start = random_symbol(rng, rep)
        plain, shifted = (
            evolve_symbol(HamiltonianSystem(sample(TrigPolynomial(h), rep)), start, 1.0, 1000).grid
            for h in (energy, {**energy, (0, 0): 1e6})
        )
        assert np.max(np.abs(shifted - plain)) <= 1.5e-8 * np.max(np.abs(plain))
