import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusq import (
    DimensionError,
    DomainError,
    Representation,
    SampledSymbol,
    TrigPolynomial,
    WignerTable,
    delta,
    dequantize,
    equivalent,
    evaluate,
    kernel_element,
    sample,
    wigner_state,
)
from torusq.symbols import _fold, _ghost_blocks, _ghost_signs

finite_coeff = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


def test_trig_drops_exact_zeros():
    tp = TrigPolynomial({(1, 0): 0.0, (0, 1): 1.0, (2, 2): 0j})
    assert len(tp) == 1
    assert tp.coefficients() == {(0, 1): 1.0 + 0j}


@pytest.mark.parametrize(
    "key", [(1.5, 0), (True, 0), (0, False), (1.0, 0), (np.float64(2), 1), ("1", 0), 1, (1, 2, 3)]
)
def test_trig_refuses_non_integer_frequencies(key):
    with pytest.raises(DomainError, match=f"frequency {re.escape(repr(key))} must be"):
        TrigPolynomial({key: 1.0})


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), complex(0, -float("inf")), np.complex128(complex(1, float("nan")))]
)
def test_trig_refuses_non_finite_coefficients(value):
    with pytest.raises(DomainError, match="at frequency \\(0, 0\\) must be finite"):
        TrigPolynomial({(0, 0): value})


@pytest.mark.parametrize("value", ["1+2j", "0", b"1", True, False, np.bool_(True)])
def test_trig_refuses_text_and_bool_coefficients(value):
    message = f"coefficient {re.escape(repr(value))} at frequency \\(0, 0\\) must be a number"
    with pytest.raises(DomainError, match=message):
        TrigPolynomial({(0, 0): value})


def test_trig_accepts_numeric_scalar_coefficients():
    values = [2, 2.0, 2 + 0j, np.int8(2), np.uint64(2), np.float32(2.0), np.float64(2.0), np.complex64(2.0)]
    for value in values:
        assert TrigPolynomial({(0, 0): value}).coefficients() == {(0, 0): 2.0 + 0j}


def test_trig_refuses_arithmetic_that_overflows():
    with pytest.raises(DomainError, match="must be finite"):
        TrigPolynomial({(1, 0): 1e308}) * 10.0


ONE_TERM = TrigPolynomial({(0, 0): 1.0})
ONES = SampledSymbol(np.ones((2, 2)), Representation(0.0, 0.0, 1))
PAST_MAX = int(np.finfo(float).max) + 1


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: TrigPolynomial({(0, 0): 10**400}), r"coefficient at frequency \(0, 0\)"),
        (lambda: TrigPolynomial({(1, 0): -PAST_MAX}), r"coefficient at frequency \(1, 0\)"),
        (lambda: TrigPolynomial({(2**1100, 1): 1.0}), "frequency component"),
        (lambda: TrigPolynomial({(1, -PAST_MAX): 1.0}), "frequency component"),
        (lambda: ONE_TERM * 10**400, "scalar factor"),
        (lambda: -PAST_MAX * TrigPolynomial(), "scalar factor"),
        (lambda: ONES * 10**400, "scalar factor"),
        (lambda: PAST_MAX * ONES, "scalar factor"),
    ],
    ids=["coefficient", "negative-coefficient", "frequency", "negative-frequency", "trig-times", "times-trig",
         "sampled-times", "times-sampled"],
)
def test_integers_past_the_float_range_are_refused_where_they_are_built(build, what):
    with pytest.raises(DomainError, match=f"^{what} is an integer past the float range$"):
        build()


def test_integers_at_the_float_maximum_are_taken():
    fmax = PAST_MAX - 1
    assert TrigPolynomial({(fmax, -fmax): fmax}).coefficients() == {(fmax, -fmax): complex(fmax)}
    assert (ONE_TERM * -fmax).coefficients() == {(0, 0): complex(-fmax)}
    assert np.array_equal((fmax * ONES).grid, np.full((2, 2), complex(fmax)))


def test_trig_accepts_numpy_integer_frequencies():
    tp = TrigPolynomial({(np.int64(2), np.int32(-1)): 1.0, (np.uint8(3), 2**70): 2.0})
    assert tp.coefficients() == {(2, -1): 1.0 + 0j, (3, 2**70): 2.0 + 0j}
    assert all(type(k) is int for key in tp.coefficients() for k in key)


def test_trig_arithmetic():
    a = TrigPolynomial({(1, 0): 1.0, (0, 1): 2.0})
    b = TrigPolynomial({(1, 0): -1.0, (2, 2): 1j})
    s = a + b
    assert s.coefficients() == {(0, 1): 2.0 + 0j, (2, 2): 1j}
    d = a - a
    assert len(d) == 0
    scaled = 2.0 * a
    assert scaled.coefficients()[(0, 1)] == 4.0 + 0j
    neg = -a
    assert neg.coefficients()[(1, 0)] == -1.0 + 0j


def test_trig_multiplication_is_scalar_only():
    a = TrigPolynomial({(1, 0): 2.0})
    b = TrigPolynomial({(0, 1): 3.0, (1, 0): 1.0})
    with pytest.raises(TypeError):
        a * b
    scaled = 1.5j * a
    assert abs(evaluate(scaled, 0.2, 0.7) - 1.5j * evaluate(a, 0.2, 0.7)) < 1e-14


def test_trig_conjugate_negates_frequencies():
    a = TrigPolynomial({(1, -2): 1 + 2j})
    c = a.conjugate().coefficients()
    assert c == {(-1, 2): 1 - 2j}
    # conjugation is an involution and matches pointwise conjugation
    assert a.conjugate().conjugate().coefficients() == a.coefficients()
    z = evaluate(a, 0.3, 0.4)
    assert abs(np.conj(z) - evaluate(a.conjugate(), 0.3, 0.4)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(min_value=-3, max_value=3, allow_nan=False),
    p=st.floats(min_value=-3, max_value=3, allow_nan=False),
    c=finite_coeff,
)
def test_evaluate_periodic(x, p, c):
    tp = TrigPolynomial({(2, -1): c, (0, 3): 1.0})
    assert evaluate(tp, x + 1.0, p) == pytest.approx(evaluate(tp, x, p), abs=1e-10)
    assert evaluate(tp, x, p + 1.0) == pytest.approx(evaluate(tp, x, p), abs=1e-10)


def test_sample_matches_pointwise_evaluation():
    rep = Representation(0.21, 0.84, 3)
    tp = TrigPolynomial({(1, 0): 0.5, (-2, 3): 1j, (0, -1): 2.0})
    grid = sample(tp, rep).grid
    side = 2 * rep.dim
    for r in range(side):
        for s in range(side):
            x = r / side + rep.theta1 / rep.dim
            p = s / side + rep.theta2 / rep.dim
            assert abs(grid[r, s] - evaluate(tp, x, p)) < 1e-12


def lattice_oracle(tp, rep):
    """Literal evaluation of tp at every lattice point."""
    side = 2 * rep.dim
    return np.array(
        [
            [
                evaluate(tp, r / side + rep.theta1 / rep.dim, s / side + rep.theta2 / rep.dim)
                for s in range(side)
            ]
            for r in range(side)
        ]
    )


ORACLE_THETAS = [(0.0, 0.0), (0.21, 0.84), (0.5, 0.5), (0.999, 0.013)]


@pytest.mark.parametrize("theta", ORACLE_THETAS)
@pytest.mark.parametrize("dim", range(1, 7))
def test_sample_matches_literal_oracle(dim, theta):
    side = 2 * dim
    rep = Representation(*theta, dim)
    # (1, 0) aliases with (1 + 2N, 0) and (1 - 4N, 0); (-3, 2) with (-3 + 2N, 2 - 2N).
    tp = TrigPolynomial(
        {
            (1, 0): 0.5,
            (1 + side, 0): -0.25j,
            (1 - 2 * side, 0): 0.125,
            (-3, 2): 1.5,
            (-3 + side, 2 - side): 0.75 - 0.5j,
            (0, 0): -1.0,
            (side, -side): 0.3,
            (-1, -1): 2j,
            (-7, 11): -0.6 + 0.2j,
        }
    )
    grid = sample(tp, rep).grid
    assert np.max(np.abs(grid - lattice_oracle(tp, rep))) < 1e-12


@pytest.mark.parametrize("theta2", [0.0, 0.37])
@pytest.mark.parametrize("dim", range(1, 7))
def test_sample_aliased_terms_cancel_exactly(dim, theta2):
    # At theta1 = 0 both terms carry the same theta phase and land in one bin.
    rep = Representation(0.0, theta2, dim)
    tp = TrigPolynomial({(1, 3): 0.7 - 0.2j, (1 + 2 * dim, 3): -0.7 + 0.2j})
    assert np.all(sample(tp, rep).grid == 0)


@pytest.mark.parametrize("dim", range(1, 7))
def test_sample_of_the_empty_polynomial_is_the_zero_grid(dim):
    grid = sample(TrigPolynomial(), Representation(0.3, 0.8, dim)).grid
    assert grid.shape == (2 * dim, 2 * dim)
    assert np.all(grid == 0)


def test_sample_takes_a_frequency_past_int64():
    rep = Representation(0.25, 0.5, 3)
    grid = sample(TrigPolynomial({(2**64 + 1, -(2**70)): 1.0}), rep).grid
    # One term sampled anywhere has modulus one; its phase is |n| eps noise.
    assert np.max(np.abs(np.abs(grid) - 1.0)) < 1e-12


def test_sample_constant():
    rep = Representation(0.4, 0.6, 2)
    grid = sample(TrigPolynomial({(0, 0): 3.5}), rep).grid
    assert np.array_equal(grid, np.full((4, 4), 3.5 + 0j))


SAMPLE_DIMS = [1, 2, 3, 8, 17, 64]


@pytest.mark.parametrize("dim", SAMPLE_DIMS)
def test_sample_matches_the_literal_sum_to_rounding(dim):
    # Frequencies within 5 keep evaluate's own phase error at a few eps, so the bound is on
    # sample's transform: a small multiple of eps T for T terms of modulus below sqrt(2).
    rng = np.random.default_rng(dim)
    keys = {(int(a), int(b)) for a, b in rng.integers(-5, 6, size=(12, 2))}
    tp = TrigPolynomial({key: complex(*rng.uniform(-1, 1, size=2)) for key in keys})
    rep = Representation(0.21, 0.84, dim)
    error = np.max(np.abs(sample(tp, rep).grid - lattice_oracle(tp, rep)))
    assert error <= 16 * np.finfo(float).eps * len(tp)


@pytest.mark.parametrize("dim", SAMPLE_DIMS)
def test_sample_of_a_constant_is_bit_exact(dim):
    grid = sample(TrigPolynomial({(0, 0): complex(-0.3, 1 / 3)}), Representation(0.7, 0.2, dim)).grid
    assert np.array_equal(grid, np.full((2 * dim, 2 * dim), complex(-0.3, 1 / 3)))


def test_sampled_symbol_validation():
    rep = Representation(0.0, 0.0, 2)
    with pytest.raises(DimensionError, match=r"^sampled symbol must have shape \(4, 4\)"):
        SampledSymbol(np.zeros((3, 3)), rep)
    bad = np.zeros((4, 4))
    bad[1, 2] = np.nan
    with pytest.raises(DomainError, match="sampled symbol entries must be finite"):
        SampledSymbol(bad, rep)


def test_sampled_symbol_grid_is_read_only():
    rep = Representation(0.0, 0.0, 1)
    sym = SampledSymbol(np.ones((2, 2)), rep)
    with pytest.raises(ValueError):
        sym.grid[0, 0] = 2.0


def test_sampled_arithmetic_requires_same_rep():
    a = SampledSymbol(np.ones((2, 2)), Representation(0.0, 0.0, 1))
    b = SampledSymbol(np.ones((2, 2)), Representation(0.5, 0.0, 1))
    with pytest.raises(DimensionError):
        a + b


def test_delta_explicit_fold():
    rng = np.random.default_rng(2)
    n = 3
    rep = Representation(0.1, 0.9, n)
    g = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    out = delta(SampledSymbol(g, rep))
    for j in range(n):
        for k in range(n):
            direct = (
                g[j, k]
                + (-1.0) ** k * g[j + n, k]
                + (-1.0) ** j * g[j, k + n]
                + (-1.0) ** (j + k + n) * g[j + n, k + n]
            )
            assert abs(out[j, k] - direct) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 8, 64, 128])
def test_ghost_signs_are_the_closed_forms(dim):
    j = np.arange(dim)
    s1, s2, s3 = _ghost_signs(dim)
    assert np.array_equal(np.broadcast_to(s1, (dim, dim)), np.broadcast_to((-1.0) ** j, (dim, dim)))
    assert np.array_equal(np.broadcast_to(s2, (dim, dim)), np.broadcast_to((-1.0) ** j[:, None], (dim, dim)))
    assert np.array_equal(s3, (-1.0) ** (j[:, None] + j + dim))


@pytest.mark.parametrize("dim", [1, 2, 5, 6])
def test_ghost_signs_are_built_once_per_dim_and_read_only(dim):
    signs = _ghost_signs(dim)
    assert _ghost_signs(dim) is signs
    grid = np.zeros((2 * dim, 2 * dim))
    assert all(sign is cached for (sign, _), cached in zip(_ghost_blocks(grid, dim), signs))
    for sign in signs:
        assert not sign.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sign[(0,) * sign.ndim] = 2.0


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 17, 128])
def test_fold_is_bit_identical_to_signs_built_on_each_call(dim):
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((2 * dim, 2 * dim)) + 1j * rng.standard_normal((2 * dim, 2 * dim))
    signs = np.ones(2 * dim)
    signs[1::2] = -1.0
    s = signs[:dim]
    n = dim
    expected = g[:n, :n] + (s * g[n:, :n] + s[:, None] * g[:n, n:] + signs[n:, None] * s * g[n:, n:])
    assert np.array_equal(_fold(g, dim).view(float), expected.view(float))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), dim=st.integers(min_value=1, max_value=5))
def test_delta_linear(seed, dim):
    rng = np.random.default_rng(seed)
    rep = Representation(rng.uniform(), rng.uniform(), dim)
    side = 2 * dim
    a = SampledSymbol(rng.standard_normal((side, side)), rep)
    b = SampledSymbol(rng.standard_normal((side, side)), rep)
    lhs = delta(a + b)
    rhs = delta(a) + delta(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=1, max_value=2**31 - 1), dim=st.integers(min_value=1, max_value=6))
def test_kernel_element_folds_to_zero_bitwise(seed, dim):
    rep = Representation(0.3, 0.8, dim)
    ghost = kernel_element(rep, seed)
    assert np.all(delta(ghost) == 0.0)


def test_kernel_element_seed_zero_is_zero_grid():
    rep = Representation(0.2, 0.5, 3)
    assert np.all(kernel_element(rep, 0).grid == 0.0)


@pytest.mark.parametrize("seed", [True, False, -1, 1.5, 2.0, "3", None])
def test_kernel_element_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        kernel_element(Representation(0.2, 0.5, 3), seed)


def test_kernel_element_takes_a_numpy_integer_seed():
    rep = Representation(0.2, 0.5, 3)
    assert np.array_equal(kernel_element(rep, np.int64(7)).grid, kernel_element(rep, 7).grid)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1j, True, "0.5", None])
def test_evaluate_refuses_a_point_that_is_not_a_finite_real_number(bad):
    tp = TrigPolynomial({(1, 2): 1.0})
    with pytest.raises(DomainError, match="x must be a finite real number"):
        evaluate(tp, bad, 0.25)
    with pytest.raises(DomainError, match="p must be a finite real number"):
        evaluate(tp, 0.25, bad)


@pytest.mark.parametrize("key", [(10**308, 0), (0, -(10**308)), (10**308, 10**308)])
def test_evaluate_names_the_frequency_whose_phase_overflows(key):
    # 2 pi n1 x passes the float range at x = 0.5 and n1 = 10**308; cmath.exp of it is a bare ValueError.
    # The suite turns warnings into errors, so no warning comes first either.
    tp = TrigPolynomial({(1, 0): 1.0, key: 1.0})
    with pytest.raises(DomainError, match=r"^the phase of frequency \((-?1000|0).*\) overflows at \(x, p\) = \(0.5, 0.5\)$"):
        evaluate(tp, 0.5, 0.5)


def test_kernel_element_nontrivial():
    rep = Representation(0.2, 0.5, 3)
    assert np.max(np.abs(kernel_element(rep, 7).grid)) > 1e-3


def test_equivalent_ignores_kernel_directions():
    rng = np.random.default_rng(9)
    rep = Representation(0.25, 0.75, 3)
    sym = SampledSymbol(rng.standard_normal((6, 6)), rep)
    assert equivalent(sym, sym + kernel_element(rep, 123))
    # a one-hot grid survives the fold, so it must break equivalence
    # (the 2N x 2N identity would not: its fold vanishes for odd N)
    spike = np.zeros((6, 6))
    spike[0, 0] = 1.0
    assert not equivalent(sym, sym + SampledSymbol(spike, rep))


def test_equivalent_rejects_rep_mismatch():
    a = SampledSymbol(np.zeros((6, 6)), Representation(0.25, 0.75, 3))
    b = SampledSymbol(np.zeros((4, 4)), Representation(0.25, 0.75, 2))
    c = SampledSymbol(np.zeros((6, 6)), Representation(0.1, 0.75, 3))
    with pytest.raises(DimensionError):
        equivalent(a, b)
    with pytest.raises(DimensionError):
        equivalent(a, c)


def test_writeable_grid_is_copied():
    rep = Representation(0.2, 0.4, 2)
    user = np.arange(16, dtype=complex).reshape(4, 4)
    sym = SampledSymbol(user, rep)
    user[0, 0] = 99.0
    assert sym.grid[0, 0] == 0.0
    assert not np.shares_memory(sym.grid, user)


def test_read_only_view_of_a_writeable_base_is_copied():
    rep = Representation(0.2, 0.4, 2)
    base = np.zeros((4, 4), dtype=complex)
    view = base[:, :]
    view.setflags(write=False)
    sym = SampledSymbol(view, rep)
    base[1, 1] = 5.0
    assert sym.grid[1, 1] == 0.0
    assert not np.shares_memory(sym.grid, base)


def test_owned_read_only_complex_grid_is_handed_over():
    rep = Representation(0.2, 0.4, 2)
    grid = np.ones((4, 4), dtype=complex)
    grid.setflags(write=False)
    assert SampledSymbol(grid, rep).grid is grid
    assert WignerTable(grid, rep, "operator").grid is grid


def test_frozen_grid_holding_nan_is_refused():
    rep = Representation(0.2, 0.4, 2)
    grid = np.zeros((4, 4), dtype=complex)
    grid[2, 3] = np.nan
    grid.setflags(write=False)
    with pytest.raises(DomainError, match="sampled symbol entries must be finite"):
        SampledSymbol(grid, rep)
    with pytest.raises(DomainError, match="Wigner table entries must be finite"):
        WignerTable(grid, rep, "operator")


def test_fresh_grids_share_memory_with_no_input():
    rng = np.random.default_rng(44)
    rep = Representation(0.6, 0.1, 3)
    coeffs = {(1, -2): 1.5, (4, 0): -0.5j}
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    op = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for grid, inputs in (
        (sample(TrigPolynomial(coeffs), rep).grid, ()),
        (wigner_state(rep, psi, phi).grid, (psi, phi)),
        (dequantize(rep, op).grid, (op,)),
    ):
        assert not grid.flags.writeable
        assert not any(np.shares_memory(grid, x) for x in inputs)
