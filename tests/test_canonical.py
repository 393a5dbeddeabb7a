"""Single-setup reductions: construction, equivalence, black-box recipes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbench import engine
from qbench.canonical import (
    CanonicalTestRecipe,
    canonical_det_test,
    canonical_prob_test,
    fully_blackbox_test,
    recipe_from_json,
    recipe_to_json,
    round_trip_residual,
    score_recipe,
    within_recipe_tol,
)
from qbench.canonical import tests_equivalent_det as equivalent_det
from qbench.canonical import tests_equivalent_prob as equivalent_prob
from qbench.engine import PnrConfig
from qbench.errors import ContractError, DimensionError, SearchError, SupportError
from qbench.linalg import Operator, PureState, partial_trace, partial_transpose
from qbench.model import (
    Channel,
    DetTest,
    ProbTest,
    fidelity_test,
    performance_operator,
    score_det_direct,
    score_det_jam,
    score_prob,
    jamiolkowski,
)
from qbench.presets import (
    chsh_test,
    equator_ensemble,
    equator_test,
    heisenberg_weyl_rep,
    swap_operator,
    teleport_test,
    tilde_pauli_rep,
)

from util import rand_channel, rand_density, rand_hermitian, rand_pure

RNG = np.random.default_rng(777)
FAST = PnrConfig(restarts=16)


def rand_omega(d_out: int, d_in: int, rng) -> Operator:
    return Operator(rand_hermitian(d_out * d_in, rng), (d_out, d_in))


class TestCanonicalConstruction:
    def test_teleport_recipe_is_the_textbook_one(self):
        t = teleport_test(2)
        r = canonical_det_test(t.omega)
        assert np.allclose(r.tau_A.matrix, np.eye(2) / 2)
        phi_plus = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(r.input_state.amplitudes, phi_plus)
        expect = 2.0 * partial_transpose(t.omega, 1).matrix
        assert np.allclose(r.observable.matrix, expect, atol=1e-12)

    def test_round_trips_random_hermitian(self):
        for d_out, d_in in ((2, 2), (2, 3), (3, 2), (3, 3)):
            for _ in range(5):
                omega = rand_omega(d_out, d_in, RNG)
                r = canonical_det_test(omega)
                rebuilt = performance_operator(r.as_det_test())
                assert (
                    np.linalg.norm(rebuilt.matrix - omega.matrix)
                    <= 1e-9 * max(1.0, np.linalg.norm(omega.matrix))
                )

    def test_round_trips_with_explicit_tau(self):
        for _ in range(10):
            omega = rand_omega(3, 3, RNG)
            tau = rand_density(3, RNG)
            r = canonical_det_test(omega, tau)
            rebuilt = performance_operator(r.as_det_test())
            assert np.linalg.norm(rebuilt.matrix - omega.matrix) <= 1e-8
            marg = partial_trace(r.input_state.density(), keep=[0])
            assert np.linalg.norm(marg.matrix - tau.matrix) < 1e-9

    def test_rank_deficient_tau_inside_support(self):
        # operator supported on |0> input side; tau = |0><0| is enough
        tvec = rand_pure(2, RNG)
        tproj = np.outer(tvec, tvec.conj())
        zero = np.diag([1.0, 0.0]).astype(complex)
        omega = Operator(np.kron(tproj, zero), (2, 2))
        r = canonical_det_test(omega, Operator(zero, (2,)))
        assert r.input_state.dims == (2, 1)
        rebuilt = performance_operator(r.as_det_test())
        assert np.linalg.norm(rebuilt.matrix - omega.matrix) < 1e-10

    def test_support_violation_names_a_direction(self):
        t = teleport_test(2)
        bad = Operator(np.diag([1.0, 0.0]).astype(complex), (2,))
        with pytest.raises(SupportError) as exc:
            canonical_det_test(t.omega, bad)
        assert exc.value.direction is not None
        assert exc.value.direction.shape == (4,)

    def test_scores_agree_with_original_test(self):
        for _ in range(10):
            sigma = rand_density(4, RNG)
            obs = rand_hermitian(4, RNG)
            original = DetTest(Operator(sigma.matrix, (2, 2)), Operator(obs, (2, 2)))
            omega = performance_operator(original)
            r = canonical_det_test(omega)
            c = rand_channel(2, 2, 2, RNG)
            direct = score_det_direct(original, c)
            via_recipe = score_det_direct(r.as_det_test(), c)
            assert abs(direct - via_recipe) < 1e-10

    def test_marginal_contract_enforced(self):
        t = teleport_test(2)
        r = canonical_det_test(t.omega)
        wrong = Operator(np.diag([0.7, 0.3]).astype(complex), (2,))
        with pytest.raises(ContractError):
            CanonicalTestRecipe(r.input_state, r.observable, wrong)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        d_out=st.integers(1, 3),
        d_in=st.integers(1, 3),
        extra_kraus=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_recipe_reproduces_omega_and_its_scores(self, d_out, d_in, extra_kraus, seed):
        rng = np.random.default_rng(seed)
        omega = rand_omega(d_out, d_in, rng)
        c = rand_channel(d_in, d_out, -(-d_in // d_out) + extra_kraus, rng)
        tol = 1e-9 * max(1.0, np.linalg.norm(omega.matrix))
        recipe = canonical_det_test(omega)
        test = recipe.as_det_test()
        assert np.linalg.norm(performance_operator(test).matrix - omega.matrix) <= tol
        via, _ = score_recipe(recipe, c)
        assert abs(via - score_det_direct(test, c)) <= tol
        assert abs(via - score_det_jam(omega, jamiolkowski(c))) <= tol

    def test_channel_dims_must_match_the_recipe(self):
        # a 2 -> 3 channel on a 2 -> 2 recipe
        recipe = canonical_det_test(teleport_test(2).omega)
        with pytest.raises(DimensionError, match="2->3"):
            score_recipe(recipe, rand_channel(2, 3, 1, RNG))


class TestProbPreservation:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        d_out=st.integers(1, 3),
        d_in=st.integers(1, 3),
        kraus_count=st.integers(1, 4),
        weight=st.floats(0.05, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_tests_and_lossy_devices(self, d_out, d_in, kraus_count, weight, seed):
        """The recipe keeps the conditional score and the success probability
        of a random PSD test with a full-rank marginal, on a random
        trace-nonincreasing channel whose Σ K†K has largest eigenvalue
        ``weight`` (not a multiple of I, so the loss depends on the input)."""
        rng = np.random.default_rng(seed)
        d = d_out * d_in
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = g @ g.conj().T
        t = ProbTest(Operator(m / np.trace(m).real, (d_out, d_in)), rand_density(d_in, rng))
        shape = (kraus_count, d_out, d_in)
        ks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        top = np.max(np.linalg.eigvalsh(np.einsum("kxa,kxb->ab", ks.conj(), ks)))
        c = Channel(ks * np.sqrt(weight / top), trace_preserving=False)
        s0, p0 = score_prob(t, c)
        s1, p1 = score_recipe(canonical_prob_test(t), c)
        assert abs(s0 - s1) < 1e-9
        assert abs(p0 - p1) < 1e-9

    def test_success_probability_is_input_marginal_only(self):
        t = teleport_test(2)
        r = canonical_prob_test(t)
        c = rand_channel(2, 2, 3, RNG, weight=0.4)
        _, p = score_recipe(r, c)
        from qbench.model import apply_channel

        direct = np.trace(apply_channel(c, t.sigma_A).matrix).real
        assert abs(p - direct) < 1e-12


class TestEquivalence:
    def test_recipe_equivalent_to_original(self):
        sigma = rand_density(4, RNG)
        obs = rand_hermitian(4, RNG)
        original = DetTest(Operator(sigma.matrix, (2, 2)), Operator(obs, (2, 2)))
        r = canonical_det_test(performance_operator(original))
        assert equivalent_det(original, r.as_det_test())

    def test_large_observable_equivalent_to_its_recipe(self):
        # the round trip's roundoff grows with the observable, so equivalence
        # is judged at the size of the operators compared
        rng = np.random.default_rng(5)
        sigma = rand_density(4, rng)
        obs = 1e8 * rand_hermitian(4, rng)
        original = DetTest(Operator(sigma.matrix, (2, 2)), Operator(obs, (2, 2)))
        r = canonical_det_test(performance_operator(original))
        assert equivalent_det(original, r.as_det_test())

    def test_perturbed_test_not_equivalent(self):
        sigma = rand_density(4, RNG)
        obs = rand_hermitian(4, RNG)
        a = DetTest(Operator(sigma.matrix, (2, 2)), Operator(obs, (2, 2)))
        b = DetTest(
            Operator(sigma.matrix, (2, 2)),
            Operator(obs + 1e-3 * np.eye(4), (2, 2)),
        )
        assert not equivalent_det(a, b)

    def test_equator_phase_counts_equivalent(self):
        # built from each n-point ensemble: equator_test(n) returns the n = 3 test
        assert equivalent_prob(equator_test(3), fidelity_test(equator_ensemble(7)))
        assert equivalent_prob(
            fidelity_test(equator_ensemble(4)), fidelity_test(equator_ensemble(12))
        )

    def test_different_reference_states_not_equivalent(self):
        t3 = equator_test(3)
        other = ProbTest(t3.omega, Operator(np.diag([0.6, 0.4]).astype(complex), (2,)))
        assert not equivalent_prob(t3, other)

    def test_dim_mismatch_raises(self):
        with pytest.raises(DimensionError):
            equivalent_prob(teleport_test(2), teleport_test(3))

    def test_opposite_operators_near_the_norm_ceiling(self):
        # each omega's norm is admitted, their difference's overflows: the
        # verdict is False, with no overflow warning on the way
        omega = np.diag([6e153, 6e153, 0.0, 0.0])
        sigma = Operator(np.eye(2) / 2, (2,))
        a, b = (ProbTest(Operator(s * omega, (2, 2)), sigma) for s in (1.0, -1.0))
        assert not equivalent_prob(a, b)


class TestFullyBlackbox:
    def test_teleport_with_covariant_shortcut(self):
        t = teleport_test(2)
        r = fully_blackbox_test(t.omega, FAST, rep=heisenberg_weyl_rep(2))
        assert r.offset == 0.0
        assert abs(r.benchmark - 2.0 / 3.0) < 1e-9
        assert np.allclose(r.tau_A.matrix, np.eye(2) / 2)

    def test_chsh_records_shift_and_raw_benchmark(self):
        t = chsh_test()
        r = fully_blackbox_test(t.omega, FAST, rep=tilde_pauli_rep())
        assert abs(r.offset - np.sqrt(2.0)) < 1e-9
        assert abs(r.benchmark - np.sqrt(2.0)) < 1e-6
        # the stored observable must be measurable: positive semidefinite
        assert np.linalg.eigvalsh(r.observable.matrix).min() > -1e-9

    def test_chsh_recipe_unshifts_for_tp_devices(self):
        # Tr[(Omega + cI) C] = Tr[Omega C] + c d_in for trace-preserving C
        t = chsh_test()
        r = fully_blackbox_test(t.omega, FAST, rep=tilde_pauli_rep())
        for _ in range(5):
            c = rand_channel(2, 2, 2, RNG)
            shifted, p = score_recipe(r, c)
            assert abs(p - 1.0) < 1e-12
            raw = score_det_jam(t.omega, jamiolkowski(c))
            assert abs((shifted - r.offset * 2) - raw) < 1e-9

    @pytest.mark.parametrize("covariant", [False, True])
    @pytest.mark.parametrize("d", [2, 3])
    def test_negative_swap_shifts_by_the_partial_transpose_floor(self, d, covariant):
        # -SWAP's partial transpose has eigenvalue -d while its spectral norm
        # is 1; no measure-and-prepare channel scores above tr(-SWAP·sep) = 0
        omega = Operator(-swap_operator(d), (d, d))
        rep = heisenberg_weyl_rep(d) if covariant else None
        r = fully_blackbox_test(omega, FAST, rep=rep)
        assert r.offset == pytest.approx(d, abs=1e-12)
        assert abs(r.benchmark) < 1e-9
        assert np.linalg.eigvalsh(r.observable.matrix).min() > -1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_scaled_negative_swap_keeps_its_shift(self, d):
        # the PPT floor and the seesaw's values scale with the operator
        scale = 1e8
        r = fully_blackbox_test(Operator(-scale * swap_operator(d), (d, d)), FAST)
        assert r.offset == pytest.approx(d * scale, rel=1e-12)
        assert abs(r.benchmark) < 1e-9 * scale

    def test_exhausted_cut_budget_raises_with_recipe(self, monkeypatch):
        # a negative tolerance is never met; the recipe at the last round's
        # reference state, shifted and un-shifted as on success, rides on the error
        monkeypatch.setattr(engine, "CUT_TOL", -1.0)
        monkeypatch.setattr(engine, "CUT_ROUNDS_PER_COORD", 1)
        omega = chsh_test().omega
        with pytest.raises(SearchError) as exc:
            fully_blackbox_test(omega, FAST)
        best = exc.value.best
        assert isinstance(best, CanonicalTestRecipe)
        assert abs(best.offset - np.sqrt(2.0)) < 1e-12
        assert abs(best.benchmark - np.sqrt(2.0)) < 1e-3
        residual = round_trip_residual(best, omega)
        assert within_recipe_tol(residual, np.linalg.norm(omega.matrix))

    def test_equator_generic_search(self):
        t = equator_test(3)
        r = fully_blackbox_test(t.omega, FAST)
        assert r.offset == 0.0
        assert abs(r.benchmark - 0.75) < 1e-6

    def test_generic_search_with_unused_input_directions(self):
        # omega = A ⊗ |b><b| scores lambda_max(A) at best; the reference
        # state must still be full rank for the recipe to exist
        a = rand_density(2, RNG).matrix
        b = rand_pure(3, RNG)
        omega = Operator(np.kron(a, np.outer(b, b.conj())), (2, 3))
        r = fully_blackbox_test(omega, FAST)
        assert abs(r.benchmark - np.linalg.eigvalsh(a)[-1]) < 1e-6

    def test_recipe_json_round_trip(self):
        t = chsh_test()
        r = fully_blackbox_test(t.omega, FAST, rep=tilde_pauli_rep())
        r2 = recipe_from_json(recipe_to_json(r))
        assert np.allclose(r2.observable.matrix, r.observable.matrix)
        assert np.allclose(r2.input_state.amplitudes, r.input_state.amplitudes)
        assert r2.offset == r.offset
        assert r2.benchmark == r.benchmark

    def test_malformed_recipe_rejected(self):
        with pytest.raises(ContractError):
            recipe_from_json({"observable": {}})
