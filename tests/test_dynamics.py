import numpy as np
import pytest

from torusq import (
    DimensionError,
    DomainError,
    HamiltonianSystem,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    dequantize,
    evolve_operator,
    evolve_symbol,
    quantize_sampled,
    sample,
)

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


def test_symbol_steps_validated():
    system, rng = generic_system(2, 25)
    a = SampledSymbol(rng.standard_normal((4, 4)) + 0j, system.rep)
    for steps in (0, -2, 2.7, 3.0, True, "4"):
        with pytest.raises(DomainError):
            evolve_symbol(system, a, 1.0, steps)
    by_numpy_int = evolve_symbol(system, a, 0.1, np.int64(3)).grid
    assert np.array_equal(by_numpy_int, evolve_symbol(system, a, 0.1, 3).grid)


def test_symbol_zero_time_unchanged():
    system, rng = generic_system(2, 26)
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


def test_symbol_route_tracks_operator_route():
    system, rng = generic_system(3, 28)
    dim = system.rep.dim
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    t = 0.6
    exact = evolve_operator(system, a, t)
    stepped = quantize_sampled(evolve_symbol(system, dequantize(system.rep, a), t, 800))
    assert np.max(np.abs(stepped - exact)) < 1e-6


def test_step_refinement_is_fourth_order():
    system, rng = generic_system(2, 29)
    dim = system.rep.dim
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
