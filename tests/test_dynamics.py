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
    evolve_operator,
    evolve_symbol,
    kernel_element,
    moyal_bracket,
    quantize_sampled,
    sample,
)
from torusq.moyal import _block_picks, _from_blocks, _to_blocks

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
def test_twisted_generator_matches_fft_bracket(dim):
    # moyal_bracket against the twisted convolution, for 1 to 4N + 1 modes of H.
    rng = np.random.default_rng(300 + dim)
    side = 2 * dim
    for modes in range(1, min(4 * dim + 1, side * side) + 1):
        energy = sparse_real_hamiltonian(rng, dim, modes)
        grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        assert_bracket_is_twisted(energy, grid, dim)


@pytest.mark.parametrize("dim", range(1, 9))
def test_twisted_generator_on_aliased_trig_frequencies(dim):
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


def random_start(rng, rep):
    side = 2 * rep.dim
    return SampledSymbol(rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)), rep)


@pytest.mark.parametrize("dim", range(1, 9))
def test_folded_steps_match_step_loop(dim):
    # evolve_symbol, which takes the steps as the powers R(z)^steps, against
    # the RK4 loop over moyal_bracket.
    for make_system in (generic_system, dense_system):
        system, rng = make_system(dim, 700 + dim)
        assert_matches_rk4_loop(system, random_start(rng, system.rep), 0.5, 200)


@pytest.mark.parametrize("dim", [2, 3])
def test_route_boundary_tracks_operator_route(dim):
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
    start = random_start(rng, rep)
    for modes in (6, dim // 2, dim // 2 + 2):
        energy = 0.1 * sparse_real_hamiltonian(rng, dim, modes, central=False)
        assert_matches_rk4_loop(HamiltonianSystem(SampledSymbol(energy, rep)), start, 0.01, 3)


def block(grid, rep, c1, c2):
    """Q_c of a grid: the quantization of the grid shifted by c = (c1, c2)."""
    return quantize_sampled(SampledSymbol(np.roll(grid, (-c1, -c2), axis=(0, 1)), rep))


@pytest.mark.parametrize("dim", range(1, 9))
def test_four_blocks_split_kernel_and_dequantized_grids(dim):
    # Fold kernel grids quantize to zero in block 0 and dequantized grids in
    # blocks 1-3, so the four blocks separate them.
    rng = np.random.default_rng(1000 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    kernel = kernel_element(rep, 1000 + dim).grid
    operator = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    canonical = dequantize(rep, operator).grid
    assert np.max(np.abs(block(kernel, rep, 0, 0))) <= 1e-12 * np.max(np.abs(kernel))
    for c1, c2 in ((1, 0), (0, 1), (1, 1)):
        assert np.max(np.abs(block(canonical, rep, c1, c2))) <= 1e-12 * np.max(np.abs(canonical))
    assert np.max(np.abs(block(canonical, rep, 0, 0) - operator)) <= 1e-12 * np.max(np.abs(operator))
    # The same split through the cached block transform, both ways.
    blocks = _to_blocks(canonical)
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
    # The cached permutation against block(), built from quantize_sampled: the
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
            expected = block(grid, rep, c1, c2)
            if c2:
                expected = d[:, None] * expected * d.conj()
            assert np.max(np.abs(stacked[c2, c1] - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(_from_blocks(stacked) - grid)) <= 1e-14 * np.max(np.abs(grid))
    picks = _block_picks(dim)
    assert type(picks) is np.ndarray and picks.dtype.kind == "i"
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
        a = random_start(np.random.default_rng(31 + dim), rep)
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
    rep = system.rep
    spread = max(
        np.ptp(np.linalg.eigvalsh(block(system.hamiltonian.grid, rep, c1, c2)))
        for c1, c2 in ((0, 0), (1, 0), (0, 1), (1, 1))
    )
    return 2 * np.sqrt(2) * steps / (2 * np.pi * rep.dim * spread)


@pytest.mark.parametrize(
    ("factor", "refused"),
    [(1 - 1e-6, False), (1 + 1e-6, True)],
    ids=["inside-the-limit", "past-the-limit"],
)
def test_stability_limit(factor, refused):
    for make_system in (generic_system, dense_system):
        system, rng = make_system(4, 900)
        start = random_start(rng, system.rep)
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
        start = random_start(rng, rep)
        plain, shifted = (
            evolve_symbol(HamiltonianSystem(sample(TrigPolynomial(h), rep)), start, 1.0, 1000).grid
            for h in (energy, {**energy, (0, 0): 1e6})
        )
        assert np.max(np.abs(shifted - plain)) <= 1.5e-8 * np.max(np.abs(plain))
