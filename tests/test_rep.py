import numpy as np
import pytest

from torusq import (
    DimensionError,
    DomainError,
    Representation,
    check_representation_laws,
    generator_t1,
    generator_t2,
    heisenberg,
)


def test_theta_reduced_mod_one():
    rep = Representation(1.25, -0.25, 3)
    assert rep.theta1 == 0.25
    assert rep.theta2 == 0.75
    assert rep.dim == 3


@pytest.mark.parametrize("label", [0.5, 1.0, np.float64(2), True, False, "1", None])
def test_group_element_labels_must_be_integers(label):
    rep = Representation(0.0, 0.0, 3)
    with pytest.raises(DomainError, match="labels must be integers"):
        heisenberg(rep, label, 0)
    with pytest.raises(DomainError, match="labels must be integers"):
        heisenberg(rep, 0, label)


def test_theta_tiny_negative_folds_to_zero():
    # -1e-18 % 1.0 evaluates to 1.0 in floating point; the constructor folds it back
    rep = Representation(-1e-18, 1.0, 2)
    assert rep.theta1 == 0.0
    assert rep.theta2 == 0.0


def test_dim_validation():
    for dim in (0, -3, 2.5, "2", True):
        with pytest.raises(DimensionError):
            Representation(0.0, 0.0, dim)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_theta_is_a_domain_error(theta):
    with pytest.raises(DomainError):
        Representation(theta, 0.0, 2)
    with pytest.raises(DomainError):
        Representation(0.0, theta, 2)


@pytest.mark.parametrize(
    "theta", ["0.5", 1j, None, 10**400, np.complex128(0.5), True, False],
    ids=["string", "complex", "none", "past-float-range", "numpy-complex", "true", "false"],
)
def test_theta_must_be_a_finite_real_number(theta):
    with pytest.raises(DomainError, match="must be a finite real number"):
        Representation(theta, 0.0, 2)
    with pytest.raises(DomainError, match="must be a finite real number"):
        Representation(0.0, theta, 2)


def test_real_number_types_are_accepted():
    for theta in (0, 3, np.int64(2), np.float32(0.25), np.float64(0.75)):
        assert Representation(theta, theta, 2).theta1 == float(theta) % 1.0


def test_identity_element():
    rep = Representation(0.12, 0.98, 4)
    assert np.allclose(heisenberg(rep, 0, 0), np.eye(4), atol=1e-15)


def test_generators_match_heisenberg():
    rep = Representation(0.3, 0.7, 5)
    assert np.array_equal(generator_t1(rep), heisenberg(rep, 1, 0))
    assert np.array_equal(generator_t2(rep), heisenberg(rep, 0, 1))


def test_generator_structure():
    n = 5
    rep = Representation(0.41, 0.13, n)
    t1 = generator_t1(rep)
    # t1 is diagonal with entries exp(2 pi i (j + theta1) / N)
    expected = np.diag(np.exp(2j * np.pi * (np.arange(n) + rep.theta1) / n))
    assert np.max(np.abs(t1 - expected)) < 1e-14
    # t2 sends u_j to a constant phase times u_{j-1}
    t2 = generator_t2(rep)
    phase = np.exp(2j * np.pi * rep.theta2 / n)
    for j in range(n):
        col = t2[:, j]
        assert abs(col[(j - 1) % n] - phase) < 1e-14
        assert np.sum(np.abs(col)) == pytest.approx(1.0, abs=1e-13)


def test_spin_half_generators_at_theta_zero():
    rep = Representation(0.0, 0.0, 2)
    assert np.max(np.abs(generator_t1(rep) - np.diag([1.0, -1.0]))) < 1e-15
    assert np.max(np.abs(generator_t2(rep) - np.array([[0.0, 1.0], [1.0, 0.0]]))) < 1e-15


def test_unitarity():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 5, 8):
        rep = Representation(rng.uniform(), rng.uniform(), dim)
        for _ in range(5):
            n1, n2 = rng.integers(-9, 10, size=2)
            t = heisenberg(rep, int(n1), int(n2))
            assert np.max(np.abs(t @ t.conj().T - np.eye(dim))) < 1e-13


def test_adjoint_is_inverse_element():
    rep = Representation(0.37, 0.81, 4)
    for n1, n2 in [(1, 0), (0, 1), (2, -3), (-5, 7)]:
        t = heisenberg(rep, n1, n2)
        assert np.max(np.abs(t.conj().T - heisenberg(rep, -n1, -n2))) < 1e-13


def test_product_cocycle():
    rep = Representation(0.2, 0.9, 3)
    for (n1, n2), (m1, m2) in [((1, 0), (0, 1)), ((2, 1), (-1, 3)), ((0, 4), (5, 0))]:
        lhs = heisenberg(rep, n1, n2) @ heisenberg(rep, m1, m2)
        phase = np.exp(-1j * np.pi * (n1 * m2 - n2 * m1) / rep.dim)
        rhs = phase * heisenberg(rep, n1 + m1, n2 + m2)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_commutation_relation():
    rep = Representation(0.6, 0.05, 4)
    t1, t2 = generator_t1(rep), generator_t2(rep)
    lhs = t1 @ t2
    rhs = np.exp(-2j * np.pi / rep.dim) * (t2 @ t1)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_periodicity_up_to_phase():
    rep = Representation(0.31, 0.62, 3)
    n = rep.dim
    # generators are N-periodic up to the boundary phases
    assert np.max(np.abs(heisenberg(rep, n, 0) - np.exp(2j * np.pi * rep.theta1) * np.eye(n))) < 1e-13
    assert np.max(np.abs(heisenberg(rep, 0, n) - np.exp(2j * np.pi * rep.theta2) * np.eye(n))) < 1e-13
    # a 2N shift multiplies by the squared boundary phase of that slot
    for n1, n2 in [(1, 2), (-3, 1)]:
        base = heisenberg(rep, n1, n2)
        shift1 = np.exp(4j * np.pi * rep.theta1) * base
        shift2 = np.exp(4j * np.pi * rep.theta2) * base
        assert np.max(np.abs(heisenberg(rep, n1 + 2 * n, n2) - shift1)) < 1e-12
        assert np.max(np.abs(heisenberg(rep, n1, n2 + 2 * n) - shift2)) < 1e-12
    # at theta in half-integers the squared phase is 1 and the map is 2N-periodic
    plain = Representation(0.0, 0.5, 3)
    for n1, n2 in [(1, 2), (-3, 1)]:
        base = heisenberg(plain, n1, n2)
        assert np.max(np.abs(heisenberg(plain, n1 + 2 * n, n2) - base)) < 1e-12
        assert np.max(np.abs(heisenberg(plain, n1, n2 + 2 * n) - base)) < 1e-12


def test_law_report_small_at_fixed_theta():
    rep = Representation(0.37, 0.81, 5)
    rng = np.random.default_rng(5)
    tuples = [tuple(int(v) for v in row) for row in rng.integers(-10, 11, size=(60, 4))]
    report = check_representation_laws(rep, tuples)
    assert set(report) == {"adjoint", "product", "commutation", "periodicity_2n", "periodicity_n"}
    assert max(report.values()) < 1e-11
