import numpy as np
import pytest

from torusq import (
    DimensionError,
    DomainError,
    HamiltonianSystem,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    equivalent,
    evolve_symbol,
    moyal_bracket,
    moyal_product,
    poisson_bracket,
    quantize_sampled,
    sample,
    semiclassical_residual,
)


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
