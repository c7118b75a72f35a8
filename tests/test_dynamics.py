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
from torusq.moyal import _FOLD_ENTRIES, _bracket_grids, _rk4, _twisted_generator

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
    """A real random grid: every lattice mode is present, so evolve_symbol
    takes the FFT-bracket route."""
    rng = np.random.default_rng(seed)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    energy = 0.3 * rng.standard_normal((2 * dim, 2 * dim))
    assert _twisted_generator(energy, dim) is None
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


def test_symbol_steps_validated():
    system, rng = generic_system(2, 25)
    a = SampledSymbol(rng.standard_normal((4, 4)) + 0j, system.rep)
    for steps in (0, -2, 2.7, 3.0, True, "4"):
        with pytest.raises(DomainError):
            evolve_symbol(system, a, 1.0, steps)
    by_numpy_int = evolve_symbol(system, a, 0.1, np.int64(3)).grid
    assert np.array_equal(by_numpy_int, evolve_symbol(system, a, 0.1, 3).grid)


def test_symbol_zero_time_unchanged():
    # 16 entries and 5 steps fold: the step matrix at dt = 0 is exactly I.
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


# N = 7 is past the fold limit and steps through the loop.  Its generator is
# about twice as large as at N = 3, so it takes twice the steps.
@pytest.mark.parametrize(("dim", "steps"), [(3, 800), (7, 1600)])
def test_symbol_route_tracks_operator_route(dim, steps):
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


# The twisted-convolution generator, checked against the FFT bracket.


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


def generator_rhs(energy, grid, dim):
    side = 2 * dim
    generator = _twisted_generator(energy, dim)
    return np.fft.ifft2(generator(np.fft.fft2(grid).ravel()).reshape(side, side))


@pytest.mark.parametrize("dim", range(1, 9))
def test_twisted_generator_matches_fft_bracket(dim):
    rng = np.random.default_rng(300 + dim)
    side = 2 * dim
    for modes in range(1, min(4 * dim + 1, side * side) + 1):
        energy = sparse_real_hamiltonian(rng, dim, modes)
        grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        expected = 2j * np.pi * dim * _bracket_grids(energy, grid, dim)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(generator_rhs(energy, grid, dim) - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("dim", range(1, 9))
def test_twisted_generator_on_aliased_trig_frequencies(dim):
    # (2N+1, 3) and (1, 3 + 2N) alias to the lattice mode (1, 3) mod 2N
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
    assert _twisted_generator(energy, dim) is not None
    grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    expected = 2j * np.pi * dim * _bracket_grids(energy, grid, dim)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(generator_rhs(energy, grid, dim) - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("dim", [2, 3])
def test_route_boundary_tracks_operator_route(dim):
    # 4N + 1 modes with one central mode move like 4N: central modes commute
    # with everything and do not count.  Moving modes come in pairs -m, m.
    rng = np.random.default_rng(500 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    for modes, twisted in ((4 * dim, True), (4 * dim + 1, True), (4 * dim + 2, False)):
        energy = 0.1 * sparse_real_hamiltonian(rng, dim, modes)
        assert (_twisted_generator(energy, dim) is not None) == twisted
        system = HamiltonianSystem(SampledSymbol(energy, rep))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        exact = evolve_operator(system, a, 0.3)
        stepped = quantize_sampled(evolve_symbol(system, dequantize(rep, a), 0.3, 300))
        assert np.max(np.abs(stepped - exact)) < 1e-6


def test_rebuilt_blocks_match_fft_bracket():
    # At N = 64 a block holds 4 modes: K = 6 and K = N/2 = 32 rebuild their
    # blocks on every call, and K = 34 is left to the FFT bracket.
    dim = 64
    rng = np.random.default_rng(600)
    side = 2 * dim
    grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    for modes, twisted in ((6, True), (dim // 2, True), (dim // 2 + 2, False)):
        energy = sparse_real_hamiltonian(rng, dim, modes, central=False)
        if not twisted:
            assert _twisted_generator(energy, dim) is None
            continue
        expected = 2j * np.pi * dim * _bracket_grids(energy, grid, dim)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(generator_rhs(energy, grid, dim) - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("coefficients", [{}, {(0, 0): 2.5}], ids=["zero", "constant"])
def test_central_hamiltonian_returns_start_exactly(coefficients):
    # 36 entries and 40 steps fold: a generator of zero gives the step matrix I.
    rep = Representation(0.2, 0.9, 3)
    system = HamiltonianSystem(sample(TrigPolynomial(coefficients), rep))
    rng = np.random.default_rng(31)
    a = SampledSymbol(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), rep)
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


# Folding the RK4 steps into one step matrix.


def route_problems(dim, seed):
    """(rhs, y) for both routes of evolve_symbol: the twisted generator of the
    four-mode Hamiltonian on a flat spectrum, and the FFT bracket of a dense
    real grid on a grid (which evolve_symbol itself takes only for N > 1)."""
    system, rng = generic_system(dim, seed)
    side = 2 * dim
    grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    energy = 0.3 * rng.standard_normal((side, side))
    return {
        "twisted": (_twisted_generator(system.hamiltonian.grid, dim), np.fft.fft2(grid).ravel()),
        "bracket": (lambda g: 2j * np.pi * dim * _bracket_grids(energy, g, dim), grid),
    }


def counted(rhs):
    def wrapper(y):
        wrapper.calls += 1
        return rhs(y)

    wrapper.calls = 0
    return wrapper


@pytest.mark.parametrize("dim", range(1, 7))
def test_folded_steps_match_step_loop(dim):
    t, steps = 0.5, 200
    dt = t / steps
    for rhs, y in route_problems(dim, 700 + dim).values():
        expected = y
        for _ in range(steps):
            k1 = rhs(expected)
            k2 = rhs(expected + 0.5 * dt * k1)
            k3 = rhs(expected + 0.5 * dt * k2)
            k4 = rhs(expected + dt * k3)
            expected = expected + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        spy = counted(rhs)
        folded = _rk4(spy, y, t, steps)
        assert spy.calls == y.size
        assert folded.shape == y.shape
        assert np.max(np.abs(folded - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dim", [2, 6])
def test_fold_calls_rhs_once_per_entry(dim):
    # A million steps cost one rhs call per state entry and about
    # 2 log2(10**6) matrix products.
    assert (2 * dim) ** 2 <= _FOLD_ENTRIES
    for rhs, y in route_problems(dim, 800 + dim).values():
        spy = counted(rhs)
        out = _rk4(spy, y, 1e-3, 10**6)
        assert spy.calls == y.size
        assert np.all(np.isfinite(out))


@pytest.mark.parametrize(
    ("dim", "steps"),
    [(7, 10), (6, 35)],
    ids=["past-the-limit", "fewer-calls-than-entries"],
)
def test_step_loop_taken_otherwise(dim, steps):
    assert (2 * dim) ** 2 > min(_FOLD_ENTRIES, 4 * steps)
    for rhs, y in route_problems(dim, 900 + dim).values():
        spy = counted(rhs)
        _rk4(spy, y, 0.1, steps)
        assert spy.calls == 4 * steps
