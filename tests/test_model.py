"""Tests, channels, scores, and the operator pairings between them."""

from __future__ import annotations

import numpy as np
import pytest

from qbench.errors import ContractError, DimensionError, VanishingSuccessError
from qbench.linalg import Operator, partial_trace, partial_transpose
from qbench.model import (
    Channel,
    DetTest,
    Ensemble,
    ProbTest,
    apply_channel,
    channel_from_json,
    channel_to_json,
    ensemble_from_json,
    ensemble_to_json,
    fidelity_test,
    jamiolkowski,
    mp_channel,
    performance_operator,
    prob_test_from_json,
    prob_test_to_json,
    score_det_direct,
    score_det_jam,
    score_prob,
)
from qbench.presets import (
    design_ensemble,
    equator_test,
    swap_operator,
    teleport_test,
)

from util import rand_channel, rand_density, rand_hermitian, rand_pure

RNG = np.random.default_rng(20260816)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def depolarizing(d: int = 2) -> Channel:
    if d != 2:
        raise ValueError
    half = 0.5
    return Channel([np.sqrt(half / 2) * m for m in (np.eye(2), X, Y, Z)])


class TestChannelType:
    def test_identity_is_trace_preserving(self):
        c = Channel.identity(3)
        assert c.trace_preserving
        assert c.dims_in == c.dims_out == 3

    def test_non_tp_kraus_rejected(self):
        with pytest.raises(ContractError):
            Channel([0.5 * np.eye(2)])

    def test_subnormalized_accepted_when_flagged(self):
        c = Channel([0.5 * np.eye(2)], trace_preserving=False)
        assert not c.trace_preserving

    def test_overnormalized_rejected_even_when_flagged(self):
        with pytest.raises(ContractError):
            Channel([1.5 * np.eye(2)], trace_preserving=False)

    def test_rectangular_kraus(self):
        k = np.zeros((3, 2), dtype=complex)
        k[0, 0] = 1.0
        k[2, 1] = 1.0
        c = Channel([k])
        assert c.dims_in == 2 and c.dims_out == 3


    def test_stacked_real_array_is_kept_read_only_and_uncopied(self):
        theta = 0.3
        ks = np.stack([np.cos(theta) * np.eye(2), np.sin(theta) * np.eye(2)])
        c = Channel(ks)
        assert np.shares_memory(c.kraus, ks)
        assert c.kraus.dtype == np.float64 and c.kraus.shape == (2, 2, 2)
        assert not c.kraus.flags.writeable
        with pytest.raises(ValueError):
            c.kraus[0, 0, 0] = 0.0

    def test_complex_list_stays_complex(self):
        c = Channel([np.sqrt(0.5) * X, np.sqrt(0.5) * Y])
        assert c.kraus.dtype == np.complex128
        assert np.array_equal(c.kraus[1], np.sqrt(0.5) * Y)
        assert not c.kraus.flags.writeable

    def test_ragged_and_empty_kraus_lists_rejected(self):
        with pytest.raises(DimensionError):
            Channel([np.eye(2), np.eye(3)])
        with pytest.raises(ContractError):
            Channel([])


class TestPerformanceOperator:
    def test_rank_one_matches_hand_contraction(self):
        # O = |x0 r0><x0 r0|, sigma = |a0 s0><a0 s0| with all indices 0:
        # Omega[(x,a),(y,b)] = sum_rs O[(x,r),(y,s)] sigma[(a,s),(b,r)]
        o = np.zeros((4, 4), dtype=complex)
        o[0, 0] = 1.0
        s = np.zeros((4, 4), dtype=complex)
        s[0, 0] = 1.0
        t = DetTest(Operator(s, (2, 2)), Operator(o, (2, 2)))
        omega = performance_operator(t)
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 0] = 1.0
        assert np.allclose(omega.matrix, expect)

    def test_product_test_factorizes(self):
        rho = rand_density(2, RNG)
        tvec = rand_pure(2, RNG)
        tproj = np.outer(tvec, tvec.conj())
        # reference-free test: sigma lives on (A, R=1)
        t = DetTest(
            Operator(rho.matrix.reshape(2, 2), (2, 1)),
            Operator(tproj, (2, 1)),
        )
        omega = performance_operator(t)
        assert np.allclose(omega.matrix, np.kron(tproj, rho.matrix.T.conj().T.T))

    def test_scores_match_through_collapse(self):
        # Tr[O (C ⊗ I)(sigma)] must equal Tr[Omega C_jam] for every channel.
        for _ in range(10):
            sigma = rand_density(4, RNG)
            obs = rand_hermitian(4, RNG)
            t = DetTest(
                Operator(sigma.matrix, (2, 2)), Operator(obs, (2, 2))
            )
            omega = performance_operator(t)
            c = rand_channel(2, 2, 3, RNG)
            direct = score_det_direct(t, c)
            paired = score_det_jam(omega, jamiolkowski(c))
            assert abs(direct - paired) < 1e-10


class TestFidelityTest:
    def test_single_state_is_plain_product(self):
        rho = rand_density(2, RNG)
        tvec = rand_pure(2, RNG)
        e = Ensemble([rho], [tvec], [1.0])
        t = fidelity_test(e)
        tproj = np.outer(tvec, tvec.conj())
        assert np.allclose(t.omega.matrix, np.kron(tproj, rho.matrix))
        assert np.allclose(t.sigma_A.matrix, rho.matrix)

    def test_equator_three_phases_closed_form(self):
        # 1/4 |00><00| + 1/4 |11><11| + 1/2 |Psi+><Psi+|
        t = equator_test(3)
        psi_plus = np.zeros(4, dtype=complex)
        psi_plus[1] = psi_plus[2] = 1.0 / np.sqrt(2)
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 0] = 0.25
        expect[3, 3] = 0.25
        expect += 0.5 * np.outer(psi_plus, psi_plus.conj())
        assert np.allclose(t.omega.matrix, expect, atol=1e-12)
        assert np.allclose(t.sigma_A.matrix, np.eye(2) / 2)

    def test_equator_operator_independent_of_phase_count(self):
        base = equator_test(3)
        for n in (4, 5, 7, 12):
            t = equator_test(n)
            assert np.allclose(t.omega.matrix, base.omega.matrix, atol=1e-12)

    def test_design_ensemble_reproduces_uniform_test(self):
        for d in (2, 3):
            t = fidelity_test(design_ensemble(d))
            assert np.allclose(
                t.omega.matrix, teleport_test(d).omega.matrix, atol=1e-12
            )

    def test_omega_is_density_like(self):
        e = design_ensemble(2)
        t = fidelity_test(e)
        assert t.omega.is_psd()
        assert abs(np.trace(t.omega.matrix).real - 1.0) < 1e-12


class TestJamiolkowski:
    def test_identity_gives_swap(self):
        for d in (2, 3):
            j = jamiolkowski(Channel.identity(d))
            assert np.allclose(j.matrix, swap_operator(d))

    def test_depolarizing_gives_half_identity(self):
        j = jamiolkowski(depolarizing())
        assert np.allclose(j.matrix, np.eye(4) / 2, atol=1e-12)

    def test_trace_preservation_marginal(self):
        for d_in, d_out in ((2, 2), (2, 3), (3, 2)):
            c = rand_channel(d_in, d_out, 2, RNG)
            j = jamiolkowski(c)
            marg = partial_trace(j, keep=[1])
            assert np.allclose(marg.matrix, np.eye(d_in), atol=1e-10)
            assert abs(np.trace(j.matrix).real - d_in) < 1e-10

    def test_pairing_reproduces_fidelity(self):
        # Tr[(t ⊗ rho) C] = <t| C(rho) |t> with no conjugation anywhere
        for _ in range(5):
            c = rand_channel(3, 3, 2, RNG)
            rho = rand_density(3, RNG)
            tvec = rand_pure(3, RNG)
            tproj = np.outer(tvec, tvec.conj())
            lhs = np.trace(np.kron(tproj, rho.matrix) @ jamiolkowski(c).matrix).real
            out = apply_channel(c, rho)
            rhs = (tvec.conj() @ out.matrix @ tvec).real
            assert abs(lhs - rhs) < 1e-11

    def test_apply_channel_matches_jam_contraction(self):
        c = rand_channel(2, 3, 2, RNG)
        rho = rand_density(2, RNG)
        j = jamiolkowski(c)
        j4 = j.matrix.reshape(3, 2, 3, 2)
        via_jam = np.einsum("arbs,sr->ab", j4, rho.matrix)
        assert np.allclose(apply_channel(c, rho).matrix, via_jam, atol=1e-12)


class TestScores:
    def test_teleport_identity_and_depolarizing(self):
        t = teleport_test(2)
        s, p = score_prob(t, Channel.identity(2))
        assert abs(s - 1.0) < 1e-12 and abs(p - 1.0) < 1e-12
        s, p = score_prob(t, depolarizing())
        assert abs(s - 0.5) < 1e-12 and abs(p - 1.0) < 1e-12

    def test_direct_equals_pairing_qubit_and_qutrit(self):
        for d in (2, 3):
            for _ in range(10):
                sigma = rand_density(d * d, RNG)
                obs = rand_hermitian(d * d, RNG)
                t = DetTest(Operator(sigma.matrix, (d, d)), Operator(obs, (d, d)))
                c = rand_channel(d, d, 2, RNG)
                a = score_det_direct(t, c)
                b = score_det_jam(performance_operator(t), jamiolkowski(c))
                assert abs(a - b) < 1e-10

    def test_kraus_rescaling_leaves_score_fixed(self):
        t = teleport_test(2)
        c = rand_channel(2, 2, 2, RNG)
        q = 0.37
        scaled = Channel(
            [np.sqrt(q) * k for k in c.kraus], trace_preserving=False
        )
        s0, p0 = score_prob(t, c)
        s1, p1 = score_prob(t, scaled)
        assert abs(s0 - s1) < 1e-12
        assert abs(p1 - q * p0) < 1e-12

    def test_vanishing_success_raises(self):
        t = teleport_test(2)
        tiny = Channel([1e-9 * np.eye(2)], trace_preserving=False)
        with pytest.raises(VanishingSuccessError):
            score_prob(t, tiny)

    def test_det_scoring_requires_trace_preservation(self):
        sigma = rand_density(4, RNG)
        obs = rand_hermitian(4, RNG)
        t = DetTest(Operator(sigma.matrix, (2, 2)), Operator(obs, (2, 2)))
        lossy = rand_channel(2, 2, 2, RNG, weight=0.5)
        with pytest.raises(ContractError):
            score_det_direct(t, lossy)


class TestMeasureAndPrepare:
    def test_classical_pipeline(self):
        povm = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        outs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        c = mp_channel(povm, outs)
        assert c.trace_preserving
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        out = apply_channel(c, Operator(plus, (2,)))
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)
        zero = Operator(np.diag([1.0, 0.0]).astype(complex), (2,))
        assert np.allclose(apply_channel(c, zero).matrix, zero.matrix, atol=1e-12)

    def test_overcomplete_povm_rejected(self):
        with pytest.raises(ContractError):
            mp_channel(
                [np.diag([1.5, 0.5]), np.diag([0.2, 0.8])],
                [np.eye(2) / 2, np.eye(2) / 2],
            )

    def test_negative_povm_element_rejected(self):
        with pytest.raises(ContractError):
            mp_channel(
                [np.diag([1.2, 1.0]), np.diag([-0.2, 0.0])],
                [np.eye(2) / 2, np.eye(2) / 2],
            )

    def test_subnormalized_povm_gives_lossy_channel(self):
        c = mp_channel([0.5 * np.eye(2)], [np.eye(2) / 2])
        assert not c.trace_preserving

    def test_jamiolkowski_of_mp_channel_is_ppt(self):
        # measure-and-prepare operators are separable, hence PPT
        for _ in range(10):
            u = np.linalg.qr(
                RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            )[0]
            povm = [np.outer(u[:, i], u[:, i].conj()) for i in range(2)]
            outs = [rand_density(2, RNG).matrix for _ in range(2)]
            j = jamiolkowski(mp_channel(povm, outs))
            pt = partial_transpose(j, 1)
            assert np.linalg.eigvalsh(pt.matrix).min() > -1e-9

    def test_mp_scores_below_teleport_benchmark(self):
        t = teleport_test(2)
        for _ in range(10):
            u = np.linalg.qr(
                RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            )[0]
            povm = [np.outer(u[:, i], u[:, i].conj()) for i in range(2)]
            outs = [rand_density(2, RNG).matrix for _ in range(2)]
            s, _ = score_prob(t, mp_channel(povm, outs))
            assert s <= 2.0 / 3.0 + 1e-9


class TestJson:
    def test_channel_round_trip(self):
        c = rand_channel(2, 3, 2, RNG)
        c2 = channel_from_json(channel_to_json(c))
        assert all(np.allclose(a, b) for a, b in zip(c.kraus, c2.kraus))
        assert c2.trace_preserving == c.trace_preserving

    def test_real_channel_round_trip(self):
        c = Channel(np.stack([np.sqrt(0.3) * np.eye(3), np.sqrt(0.7) * np.eye(3)[::-1]]))
        assert c.kraus.dtype == np.float64
        c2 = channel_from_json(channel_to_json(c))
        assert c2.kraus.dtype == np.float64
        assert np.array_equal(c2.kraus, c.kraus)
        assert c2.trace_preserving and (c2.dims_in, c2.dims_out) == (3, 3)

    def test_prob_test_round_trip(self):
        t = teleport_test(2)
        t2 = prob_test_from_json(prob_test_to_json(t))
        assert np.allclose(t2.omega.matrix, t.omega.matrix)
        assert t2.omega.dims == t.omega.dims

    def test_ensemble_round_trip(self):
        e = design_ensemble(2)
        e2 = ensemble_from_json(ensemble_to_json(e))
        assert np.allclose(e2.probs, e.probs)
        assert all(
            np.allclose(a.matrix, b.matrix) for a, b in zip(e.states, e2.states)
        )

    def test_malformed_channel_rejected(self):
        with pytest.raises(ContractError):
            channel_from_json({"kraus": "nope"})
