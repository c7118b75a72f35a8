import cmath

import numpy as np
import pytest

from torusq import (
    KIND_OPERATOR,
    KIND_STATE_PAIR,
    DimensionError,
    DomainError,
    Representation,
    SampledSymbol,
    WignerTable,
    check_symmetries,
    fourier_wigner,
    heisenberg,
    marginal_p,
    marginal_x,
    pairing,
    quantize_sampled,
    symmetric_extension,
    wigner_operator,
    wigner_state,
)


def _random_pair(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi, phi


def test_ground_state_table_spin_half():
    rep = Representation(0.0, 0.0, 2)
    u0 = np.array([1.0, 0.0])
    grid = wigner_state(rep, u0, u0).grid
    expected = 0.25 * np.array(
        [[1, 1, 1, 1], [0, 0, 0, 0], [1, -1, 1, -1], [0, 0, 0, 0]], dtype=float
    )
    assert np.max(np.abs(grid - expected)) < 1e-15
    assert np.max(np.abs(marginal_x(wigner_state(rep, u0, u0)) - np.array([1, 0, 0, 0]))) < 1e-15
    assert np.max(np.abs(marginal_p(wigner_state(rep, u0, u0)) - np.array([0.5, 0, 0.5, 0]))) < 1e-15


def test_mass_is_inner_product():
    rng = np.random.default_rng(21)
    for dim in (1, 2, 3, 6):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        psi, phi = _random_pair(rng, dim)
        table = wigner_state(rep, psi, phi)
        assert abs(complex(table.grid.sum()) - complex(np.vdot(psi, phi))) < 1e-13


def test_marginals():
    rng = np.random.default_rng(22)
    for dim in (1, 2, 5):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        psi, phi = _random_pair(rng, dim)
        table = wigner_state(rep, psi, phi)
        mx = marginal_x(table)
        mp = marginal_p(table)
        assert np.max(np.abs(mx[1::2])) < 1e-14
        assert np.max(np.abs(mp[1::2])) < 1e-14
        assert np.max(np.abs(mx[0::2] - np.conj(psi) * phi)) < 1e-14
        hat_psi, hat_phi = np.fft.fft(psi), np.fft.fft(phi)
        assert np.max(np.abs(mp[0::2] - np.conj(hat_psi) * hat_phi / dim)) < 1e-13


def _literal_table(coeff, dim):
    """W(r, s) = (1/2N) sum_{l in Z_N} coeff(r, l) exp(-i pi (2l - r) s / N), summed in loops."""
    side = 2 * dim
    table = np.zeros((side, side), dtype=complex)
    for r in range(side):
        for s in range(side):
            total = 0j
            for l in range(dim):
                total += coeff(r, l) * cmath.exp(-1j * cmath.pi * (2 * l - r) * s / dim)
            table[r, s] = total / side
    return table


@pytest.mark.parametrize("dim", range(1, 7))
def test_state_table_matches_literal_sum(dim):
    rng = np.random.default_rng(30 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    psi, phi = _random_pair(rng, dim)
    expected = _literal_table(lambda r, l: np.conj(psi[(r - l) % dim]) * phi[l], dim)
    assert np.max(np.abs(wigner_state(rep, psi, phi).grid - expected)) < 1e-13


@pytest.mark.parametrize("dim", range(1, 7))
def test_operator_table_matches_literal_sum(dim):
    rng = np.random.default_rng(40 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    expected = _literal_table(lambda r, l: a[l, (r - l) % dim], dim)
    assert np.max(np.abs(wigner_operator(rep, a).grid - expected)) < 1e-13


def test_symmetries_exact_and_extension_roundtrip():
    rng = np.random.default_rng(23)
    for dim in range(1, 7):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        psi, phi = _random_pair(rng, dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for table in (wigner_state(rep, psi, phi), wigner_operator(rep, a)):
            assert check_symmetries(table) == 0.0
            rebuilt = symmetric_extension(table.grid[: dim, : dim])
            assert np.array_equal(rebuilt, table.grid)


def _literal_symmetry_residual(grid, dim):
    """Largest |W(ghost) - sign W(m, l)| over every ghost entry of S1, S2, S3.

    The differences are taken one entry at a time; their magnitudes go through
    the array np.abs, whose last bit can differ from the scalar abs.
    """
    diffs = []
    for m in range(dim):
        for l in range(dim):
            for gm, gl, sign in (
                (m + dim, l, (-1.0) ** l),
                (m, l + dim, (-1.0) ** m),
                (m + dim, l + dim, (-1.0) ** (m + l + dim)),
            ):
                diffs.append(grid[gm, gl] - sign * grid[m, l])
    return float(np.max(np.abs(np.array(diffs))))


@pytest.mark.parametrize("dim", range(1, 7))
def test_symmetry_residual_matches_literal_loop(dim):
    rng = np.random.default_rng(50 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    side = 2 * dim
    for kind in (KIND_STATE_PAIR, KIND_OPERATOR):
        grid = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        residual = check_symmetries(WignerTable(grid, rep, kind))
        assert residual > 0.0
        assert residual == _literal_symmetry_residual(grid, dim)
    psi, phi = _random_pair(rng, dim)
    grid = np.array(wigner_state(rep, psi, phi).grid)
    grid[dim:, :] += 1e-3 * rng.standard_normal((dim, side))
    residual = check_symmetries(WignerTable(grid, rep, KIND_STATE_PAIR))
    assert residual == _literal_symmetry_residual(grid, dim)


@pytest.mark.parametrize("dim", range(1, 7))
def test_symmetry_residual_is_the_ghost_perturbation(dim):
    # Integer entries and a dyadic perturbation keep every difference exact.
    rng = np.random.default_rng(60 + dim)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    block = rng.integers(-8, 8, (dim, dim)) + 1j * rng.integers(-8, 8, (dim, dim))
    symmetric = symmetric_extension(block)
    assert check_symmetries(WignerTable(symmetric, rep, KIND_OPERATOR)) == 0.0
    bump = 0.375 - 0.5j
    for rows, cols in ((slice(dim, None), slice(None, dim)),
                       (slice(None, dim), slice(dim, None)),
                       (slice(dim, None), slice(dim, None))):
        for j in range(dim):
            for k in range(dim):
                grid = symmetric.copy()
                grid[rows, cols][j, k] += bump
                assert check_symmetries(WignerTable(grid, rep, KIND_OPERATOR)) == abs(bump)


def test_reality_for_diagonal_pair():
    rng = np.random.default_rng(24)
    rep = Representation(0.9, 0.2, 3)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.max(np.abs(wigner_state(rep, psi, psi).grid.imag)) < 1e-14


def test_operator_table_of_rank_one_matches_state_table():
    rng = np.random.default_rng(25)
    for dim in (1, 2, 4, 5):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        psi, phi = _random_pair(rng, dim)
        a = np.outer(phi, np.conj(psi))
        gap = np.max(np.abs(wigner_operator(rep, a).grid - wigner_state(rep, psi, phi).grid))
        assert gap < 1e-14


def test_pairing_against_matrix_element():
    rng = np.random.default_rng(26)
    for dim in (1, 3, 5):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        psi, phi = _random_pair(rng, dim)
        g = rng.standard_normal((2 * dim, 2 * dim)) + 1j * rng.standard_normal((2 * dim, 2 * dim))
        sym = SampledSymbol(g, rep)
        lhs = pairing(sym, psi, phi)
        rhs = complex(np.vdot(psi, quantize_sampled(sym) @ phi))
        assert abs(lhs - rhs) < 1e-12


def test_fourier_wigner_is_group_matrix_element():
    rng = np.random.default_rng(27)
    rep = Representation(0.62, 0.18, 3)
    psi, phi = _random_pair(rng, 3)
    for n1, n2 in [(0, 0), (1, 0), (2, 5), (-1, 4)]:
        direct = complex(np.vdot(psi, heisenberg(rep, n1, n2) @ phi))
        assert abs(fourier_wigner(rep, psi, phi, n1, n2) - direct) < 1e-14


def test_fourier_wigner_reads_off_flipped_table():
    rng = np.random.default_rng(28)
    dim = 3
    side = 2 * dim
    rep = Representation(0.41, 0.87, dim)
    psi, phi = _random_pair(rng, dim)
    flipped = psi[(dim - np.arange(dim)) % dim]
    ghost = wigner_state(rep, flipped, phi).grid
    for k in range(side):
        for m in range(side):
            rhs = (
                side
                * ghost[m, (-k) % side]
                * np.exp(2j * np.pi * (k * rep.theta1 + m * rep.theta2) / dim)
            )
            assert abs(fourier_wigner(rep, psi, phi, k, m) - rhs) < 1e-12


def test_state_length_checked():
    rep = Representation(0.0, 0.0, 3)
    with pytest.raises(DimensionError):
        wigner_state(rep, np.ones(2), np.ones(3))
    with pytest.raises(DimensionError):
        wigner_operator(rep, np.ones((2, 2)))


def test_table_validation():
    rep = Representation(0.0, 0.0, 2)
    with pytest.raises(DomainError):
        WignerTable(np.zeros((4, 4)), rep, "something-else")
    with pytest.raises(DimensionError, match=r"^Wigner table .*must be 4 x 4"):
        WignerTable(np.zeros((3, 3)), rep, KIND_STATE_PAIR)
    bad = np.zeros((4, 4))
    bad[3, 0] = np.inf
    with pytest.raises(DomainError, match="Wigner table entries must be finite"):
        WignerTable(bad, rep, KIND_STATE_PAIR)
    table = WignerTable(np.zeros((4, 4)), rep, KIND_OPERATOR)
    assert table.kind == KIND_OPERATOR
    with pytest.raises(ValueError):
        table.grid[0, 0] = 1.0


def test_symmetric_extension_requires_square_block():
    with pytest.raises(DimensionError):
        symmetric_extension(np.zeros((2, 3)))
    with pytest.raises(DimensionError, match="principal block must be square"):
        symmetric_extension(np.zeros((2, 3, 3)))
