"""Built-in examples: projectors, designs, groups."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qbench import model, presets
from qbench.engine import check_covariance, twirl_operator
from qbench.errors import ContractError, CutoffError
from qbench.presets import (
    chsh_test,
    clifford_group,
    clifford_rep,
    design_states,
    equator_ensemble,
    equator_states,
    equator_test,
    heisenberg_weyl_rep,
    pauli_rep,
    symmetric_projector,
    teleport_benchmark_exact,
    teleport_test,
    tilde_paulis,
)

from util import rand_hermitian

RNG = np.random.default_rng(5150)


class TestProjectors:
    def test_symmetric_projector_is_projector(self):
        for d in (2, 3, 4):
            p = symmetric_projector(d)
            assert np.allclose(p @ p, p)
            assert abs(np.trace(p).real - d * (d + 1) / 2) < 1e-12

    def test_teleport_omega_normalised(self):
        for d in (2, 3):
            om = teleport_test(d).omega
            assert abs(np.trace(om.matrix).real - 1.0) < 1e-12
            assert om.is_psd()

    def test_teleport_dimension_guard(self):
        # the d^2 x d^2 operator is refused before it is allocated
        for d in (56, 999):
            tracemalloc.start()
            try:
                with pytest.raises(CutoffError, match="MiB cap"):
                    teleport_test(d)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (d, peak)

    def test_equator_point_guard(self, monkeypatch):
        # n states and their projectors are refused before they are built;
        # unguarded, 10**5 points peaked at 148 MB RSS and 10**8 would
        # exhaust memory, so the cap is lowered here to keep n small
        monkeypatch.setattr(model, "ARRAY_MAX_BYTES", 2**20)
        equator_ensemble(1000)
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError, match="n=10000 needs"):
                equator_ensemble(10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, peak

    def test_equator_test_builds_three_points_for_any_n(self, monkeypatch):
        # the operator does not depend on n >= 3, so 10**6 points cost what
        # three do (building them took 0.7-1.7 s); n < 3 is still refused
        base = equator_test(3)
        built, states = [], presets.equator_states
        monkeypatch.setattr(presets, "equator_states", lambda n: built.append(n) or states(n))
        big = equator_test(10**6)
        assert built == [3]
        # and the three-point test is the test of a many-point ensemble
        many = model.fidelity_test(equator_ensemble(1000))
        for got in (big, base):
            assert np.allclose(got.omega.matrix, many.omega.matrix, rtol=0, atol=1e-12)
            assert np.allclose(got.sigma_A.matrix, many.sigma_A.matrix, rtol=0, atol=1e-12)
        with pytest.raises(ContractError, match="at least 3"):
            equator_test(2)

    def test_exact_benchmarks(self):
        assert teleport_benchmark_exact(2) == pytest.approx(2 / 3)
        assert teleport_benchmark_exact(3) == pytest.approx(1 / 2)


class TestChsh:
    def test_spectrum(self):
        om = chsh_test().omega
        eigs = np.sort(np.linalg.eigvalsh(om.matrix))
        expect = np.sort([np.sqrt(2), -np.sqrt(2), 0.0, 0.0])
        assert np.allclose(eigs, expect, atol=1e-12)

    def test_equals_own_partial_transpose(self):
        from qbench.linalg import partial_transpose

        om = chsh_test().omega
        assert np.allclose(partial_transpose(om, 1).matrix, om.matrix, atol=1e-12)

    def test_tilde_frame(self):
        x_t, z_t = tilde_paulis()
        assert np.allclose(x_t @ x_t, np.eye(2))
        assert np.allclose(z_t @ z_t, np.eye(2))
        # anticommute like the plain frame
        assert np.allclose(x_t @ z_t + z_t @ x_t, 0.0, atol=1e-12)


class TestEquator:
    def test_states_on_the_equator(self):
        for v in equator_states(5):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert abs(abs(v[0]) - abs(v[1])) < 1e-12

    def test_too_few_phases_rejected(self):
        with pytest.raises(ContractError):
            equator_states(2)

    def test_pauli_covariance(self):
        assert check_covariance(equator_test(3).omega, pauli_rep())


class TestGroups:
    def test_clifford_sizes(self):
        assert len(clifford_group(2)) == 24
        assert len(clifford_group(3)) == 216

    def test_clifford_unsupported_dim(self):
        with pytest.raises(ContractError):
            clifford_group(4)

    def test_clifford_closure_spot_check(self):
        grp = clifford_group(2)
        for _ in range(20):
            i, j = RNG.integers(0, len(grp), size=2)
            prod = grp[i] @ grp[j]
            hits = sum(
                1 for u in grp if abs(abs(np.trace(u.conj().T @ prod)) - 2) < 1e-6
            )
            assert hits == 1

    def test_clifford_is_unitary_2_design(self):
        # frame potential (1/|G|^2) sum |Tr(U V†)|^4 equals 2 for a 2-design
        for d in (2, 3):
            grp = clifford_group(d)
            gram = np.array([[np.trace(u.conj().T @ v) for v in grp] for u in grp])
            potential = np.mean(np.abs(gram) ** 4)
            assert abs(potential - 2.0) < 1e-9

    def test_heisenberg_weyl_twirl_is_depolarising(self):
        for d in (2, 3, 4):
            rep = heisenberg_weyl_rep(d)
            h = rand_hermitian(d, RNG)
            tw = twirl_operator(h, rep.elements_in, rep.weights)
            assert np.allclose(tw, np.eye(d) * np.trace(h).real / d, atol=1e-10)

    def test_teleport_covariant_under_both_groups(self):
        for d in (2, 3):
            om = teleport_test(d).omega
            assert check_covariance(om, heisenberg_weyl_rep(d))
            assert check_covariance(om, clifford_rep(d))


class TestStateDesigns:
    def test_design_sizes(self):
        assert len(design_states(2)) == 6
        assert len(design_states(3)) == 12

    def test_frame_potential(self):
        # (1/n^2) sum |<i|j>|^4 = 2/(d(d+1)) characterises state 2-designs
        for d in (2, 3):
            vecs = design_states(d)
            total = 0.0
            for u in vecs:
                for v in vecs:
                    total += abs(np.vdot(u, v)) ** 4
            potential = total / len(vecs) ** 2
            assert abs(potential - 2.0 / (d * (d + 1))) < 1e-12

    def test_unsupported_dim(self):
        with pytest.raises(ContractError):
            design_states(5)
