import warnings

import numpy as np
import pytest

from qbench.errors import ContractError, DimensionError
from qbench.linalg import (
    Operator,
    PureState,
    hermitian_eig,
    kron,
    operator_from_json,
    operator_to_json,
    partial_trace,
    partial_transpose,
    permute_systems,
    psd_power_on_support,
    purify,
    state_from_json,
    state_to_json,
)

RNG = np.random.default_rng(20260816)

I2 = Operator(np.eye(2), (2,))
X = Operator(np.array([[0, 1], [1, 0]], dtype=complex), (2,))
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_density(d, rng=RNG, rank=None):
    rank = rank or d
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(d, rng=RNG):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


class TestOperatorType:
    def test_shape_must_match_dims(self):
        with pytest.raises(DimensionError):
            Operator(np.eye(3), (2,))

    def test_rejects_nan(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ContractError):
            Operator(bad, (2,))

    def test_predicates(self):
        rho = Operator(np.diag([0.5, 0.5]).astype(complex), (2,))
        assert rho.is_hermitian()
        assert rho.is_psd()
        assert rho.is_unit_trace()
        assert not Operator([[0, 1], [0, 0]], (2,)).is_hermitian()
        assert not Operator(np.diag([1.5, -0.5]), (2,)).is_psd()

    def test_hermiticity_near_the_norm_ceiling(self):
        # the norm 8.5e153 is admitted, that of m - m† (1.7e154) overflows:
        # the verdict is False, without numpy's "overflow encountered in dot"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not Operator([[0, 6e153], [-6e153, 0]], (2,)).is_hermitian()


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2).matrix, np.eye(4))
        assert kron(I2, I2).dims == (2, 2)

    def test_basis_ordering(self):
        a = Operator(np.diag([1, 0]), (2,))
        b = Operator(np.diag([0, 1]), (2,))
        assert np.array_equal(kron(a, b).matrix, np.diag([0, 1, 0, 0]))

    def test_double_flip(self):
        xx = kron(X, X).matrix
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        ket11 = np.array([0, 0, 0, 1], dtype=complex)
        assert np.allclose(xx @ ket00, ket11)


class TestPartialTrace:
    def test_product_factorization(self):
        rho = random_density(2)
        sig = random_density(3)
        prod = Operator(np.kron(rho, sig), (2, 3))
        out = partial_trace(prod, (0,))
        assert np.allclose(out.matrix, rho * np.trace(sig).real, atol=1e-12)

    def test_entangled_marginal(self):
        phi = Operator(np.outer(PHI_PLUS, PHI_PLUS.conj()), (2, 2))
        out = partial_trace(phi, (1,))
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_composes_to_full_trace(self):
        for _ in range(3):
            rho = Operator(random_density(12), (2, 3, 2))
            t0 = partial_trace(partial_trace(rho, (0, 1)), (0,))
            assert abs(np.trace(t0.matrix) - np.trace(rho.matrix)) < 1e-12

    def test_keep_order_respected(self):
        rho = random_density(2)
        sig = random_density(3)
        prod = Operator(np.kron(rho, sig), (2, 3))
        swapped = partial_trace(prod, (1, 0))
        assert swapped.dims == (3, 2)
        assert np.allclose(swapped.matrix, np.kron(sig, rho), atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(DimensionError):
            partial_trace(Operator(np.eye(4), (2, 2)), ())


class TestPartialTranspose:
    def test_product_operator(self):
        a = random_hermitian(2) + 1j * 0
        b = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
        m = Operator(np.kron(a, b), (2, 3))
        out = partial_transpose(m, 1)
        assert np.allclose(out.matrix, np.kron(a, b.T))

    def test_phi_plus_to_swap(self):
        phi2 = Operator(2 * np.outer(PHI_PLUS, PHI_PLUS.conj()), (2, 2))
        assert np.allclose(partial_transpose(phi2, 1).matrix, SWAP)

    def test_min_eigenvalue(self):
        phi = Operator(np.outer(PHI_PLUS, PHI_PLUS.conj()), (2, 2))
        w = np.linalg.eigvalsh(partial_transpose(phi, 0).matrix)
        assert abs(w[0] - (-0.5)) < 1e-12

    def test_involution_and_full_transpose(self):
        m = Operator(RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6)), (2, 3))
        assert np.array_equal(
            partial_transpose(partial_transpose(m, 0), 0).matrix, m.matrix
        )
        both = partial_transpose(partial_transpose(m, 0), 1)
        assert np.allclose(both.matrix, m.matrix.T)

    def test_commutes_with_trace_over_other_factor(self):
        m = Operator(random_density(6), (2, 3))
        a = partial_trace(partial_transpose(m, 0), (0,))
        b = partial_transpose(partial_trace(m, (0,)), 0)
        assert np.allclose(a.matrix, b.matrix, atol=1e-12)


class TestHermitianEig:
    def test_sorted_ascending(self):
        w, _ = hermitian_eig(Operator(np.diag([3.0, 1.0, 2.0]), (3,)))
        assert np.allclose(w, [1, 2, 3])

    def test_pauli_x(self):
        w, _ = hermitian_eig(X)
        assert np.allclose(w, [-1, 1])

    def test_reconstruction_residual(self):
        m = random_hermitian(8)
        w, v = hermitian_eig(Operator(m, (8,)))
        assert np.linalg.norm((v * w) @ v.conj().T - m) < 1e-10 * np.linalg.norm(m)
        assert np.allclose(v.conj().T @ v, np.eye(8), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractError):
            hermitian_eig(Operator([[0, 1], [0, 0]], (2,)))


class TestPurify:
    def test_pure_input(self):
        s = purify(Operator(np.diag([1.0, 0.0]), (2,)))
        assert s.dims == (2, 1)
        assert abs(abs(s.amplitudes[0]) - 1) < 1e-12

    def test_maximally_mixed(self):
        s = purify(Operator(np.eye(2) / 2, (2,)))
        assert s.dims == (2, 2)
        rho = s.density()
        marg_R = partial_trace(rho, (1,))
        assert np.allclose(marg_R.matrix, np.eye(2) / 2, atol=1e-10)

    def test_thermal_round_trip(self):
        x = 0.5
        diag = (1 - x) * x ** np.arange(10)
        diag = diag / diag.sum()
        rho = Operator(np.diag(diag), (10,))
        s = purify(rho)
        marg = partial_trace(s.density(), (0,))
        assert np.linalg.norm(marg.matrix - rho.matrix) < 1e-10

    def test_schmidt_descending_on_reference(self):
        rho = Operator(np.diag([0.1, 0.6, 0.3]), (3,))
        s = purify(rho)
        marg_R = partial_trace(s.density(), (1,)).matrix
        # reference marginal is diagonal with descending weights
        assert np.allclose(marg_R, np.diag([0.6, 0.3, 0.1]), atol=1e-10)

    def test_trace_within_tolerance_is_reproduced(self):
        # tr = 1 + 5e-10 passes is_unit_trace, so the marginal must be rho
        # itself, not rho renormalized to trace one
        rho = Operator(np.diag([0.7, 0.3 + 5e-10]), (2,))
        s = purify(rho)
        marg = partial_trace(s.density(), (0,))
        assert np.linalg.norm(marg.matrix - rho.matrix) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractError):
            purify(Operator(np.diag([1.5, -0.5]), (2,)))
        with pytest.raises(ContractError):
            purify(Operator(np.eye(2), (2,)))


class TestPermute:
    def test_round_trip(self):
        m = Operator(RNG.normal(size=(12, 12)) + 1j * RNG.normal(size=(12, 12)), (2, 3, 2))
        p = permute_systems(m, (2, 0, 1))
        assert p.dims == (2, 2, 3)
        back = permute_systems(p, (1, 2, 0))
        assert np.allclose(back.matrix, m.matrix)

    def test_swap_matches_kron_order(self):
        a = random_density(2)
        b = random_density(3)
        m = Operator(np.kron(a, b), (2, 3))
        swapped = permute_systems(m, (1, 0))
        assert np.allclose(swapped.matrix, np.kron(b, a))


class TestPsdPower:
    def test_inverse_sqrt_on_support(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        inv_sqrt = psd_power_on_support(rho, -0.5)
        expected = np.diag([np.sqrt(2), np.sqrt(2), 0.0])
        assert np.allclose(inv_sqrt, expected)

    def test_sqrt_squares_back(self):
        rho = random_density(4, rank=2)
        root = psd_power_on_support(rho, 0.5)
        assert np.allclose(root @ root, rho, atol=1e-10)


class TestJson:
    def test_operator_round_trip(self):
        m = Operator(RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)), (2, 2))
        back = operator_from_json(operator_to_json(m))
        assert back.dims == m.dims
        assert np.allclose(back.matrix, m.matrix)

    def test_state_round_trip(self):
        s = PureState(PHI_PLUS, (2, 2))
        back = state_from_json(state_to_json(s))
        assert np.allclose(back.amplitudes, s.amplitudes)

    def test_malformed_rejected(self):
        with pytest.raises(ContractError):
            operator_from_json({"dims": [2]})
        with pytest.raises(ContractError):
            operator_from_json(
                {"dims": [2], "re": [[0, 0], [0, 0]], "im": [[0, 0]]}
            )
