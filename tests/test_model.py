"""Tests, channels, scores, and the operator pairings between them."""

from __future__ import annotations

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbench.canonical import canonical_prob_test
from qbench.canonical import tests_equivalent_prob as equivalent_prob
from qbench.cv import FockCutoff, attenuator_device, rescale_mp_device
from qbench.engine import GroupRep
from qbench.errors import ContractError, CutoffError, DimensionError, VanishingSuccessError
from qbench.linalg import Operator, PureState, partial_trace, partial_transpose
from qbench.model import (
    ARRAY_MAX_BYTES,
    Channel,
    DetTest,
    Ensemble,
    ProbTest,
    apply_channel,
    channel_from_json,
    channel_to_json,
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
    equator_ensemble,
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


def _with_entry(template, value: float, index: tuple) -> np.ndarray:
    out = np.array(template)
    out[index] = value
    return out


def _channel_with_entry(dtype: type, trace_preserving: bool):
    return lambda x: Channel(_with_entry(np.eye(2, dtype=dtype)[None], x, (0, 0, 1)), trace_preserving)


_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])
# every constructor that admits an array, fed one with ``value`` at one entry
_ADMITTING = {
    "Operator": lambda x: Operator(_with_entry(np.eye(2, dtype=complex), x, (0, 1)), (2,)),
    "PureState": lambda x: PureState(_with_entry([1.0 + 0j, 0.0], x, 1), (2,)),
    **{
        f"Channel-{dtype.__name__}-{'tp' if tp else 'ntp'}": _channel_with_entry(dtype, tp)
        for dtype in (float, complex)
        for tp in (True, False)
    },
    "GroupRep": lambda x: GroupRep([(_with_entry(np.eye(2, dtype=complex), x, (0, 1)), np.eye(2))]),
    "mp_channel-povm": lambda x: mp_channel([_with_entry(_P0, x, (0, 1)), _P1], [_P0, _P1]),
    "mp_channel-output": lambda x: mp_channel([_P0, _P1], [_with_entry(_P0, x, (0, 1)), _P1]),
}


@pytest.mark.parametrize(
    "value, refused",
    [(np.nan, True), (np.inf, True), (1e200, True), (1e150, False)],
    ids=["nan", "inf", "norm-overflow", "1e150"],
)
@pytest.mark.parametrize("kind", sorted(_ADMITTING))
def test_every_constructor_admits_arrays_by_their_finite_norm(kind, value, refused):
    """A NaN or infinite entry, or one whose square overflows the Frobenius
    norm, is refused by the one admission rule with no RuntimeWarning on the
    way; an entry at 1e150 passes admission, whatever contract it breaks
    after that."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _ADMITTING[kind](value)
        except ContractError as err:
            assert ("finite Frobenius norm" in str(err)) == refused, err
        else:
            assert not refused


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
        # built from each n-point ensemble: equator_test(n) returns the n = 3 test
        base = equator_test(3)
        for n in (4, 5, 7, 12):
            t = fidelity_test(equator_ensemble(n))
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

    @pytest.mark.parametrize("scale", [1e8, 1e12])
    def test_imaginary_residue_is_judged_against_the_score(self, scale):
        # a trace's rounding residue grows with the score, past an absolute
        # 1e-9 at these scales
        rng = np.random.default_rng(0)
        sigma = Operator(rand_density(4, rng).matrix, (2, 2))
        obs = rand_hermitian(4, rng)
        c = rand_channel(2, 2, 2, rng)
        unit = score_det_direct(DetTest(sigma, Operator(obs, (2, 2))), c)
        t = DetTest(sigma, Operator(scale * obs, (2, 2)))
        a = score_det_direct(t, c)
        b = score_det_jam(performance_operator(t), jamiolkowski(c))
        assert abs(a - scale * unit) <= 1e-12 * scale
        assert abs(b - scale * unit) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", [1, 4, 5])
    def test_a_cancelling_pairing_is_judged_at_its_operands(self, seed):
        # omega projected orthogonal to the channel's Jamiolkowski operator
        # pairs to roundoff, here with an imaginary residue of the same size
        # (~1e-16); it is judged at ||omega||_F * ||C||_F, which bounds the
        # pairing, not at the cancelled real part
        rng = np.random.default_rng(seed)
        c_jam = jamiolkowski(rand_channel(2, 2, 2, rng)).matrix
        omega = rand_hermitian(4, rng)
        omega -= np.trace(c_jam @ omega).real / np.trace(c_jam @ c_jam).real * c_jam
        value = score_det_jam(Operator(omega, (2, 2)), Operator(c_jam, (2, 2)))
        assert abs(value) <= 1e-14 * np.linalg.norm(omega) * np.linalg.norm(c_jam)

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


SCALES = (1e-10, 1e-3, 1.0, 1e3, 1e8)


class TestScaleFreeVerdicts:
    """A check on a quantity with an operator's units is judged at the size
    of its operands, and a dimensionless one at its tolerance alone, so s * X
    gets X's verdict at every scale s."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(2, 4), defect=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_hermitian_and_psd(self, d, defect, seed):
        # defect, relative to the operator's size: the anti-Hermitian part of
        # `tilted`, and how far lambda_min of `herm` lies below zero
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gram = g @ g.conj().T
        w = np.linalg.eigvalsh(gram)
        herm = gram - (w[0] + defect * w[-1]) * np.eye(d)
        skew = 1j * rand_hermitian(d, rng)
        tilted = herm + defect * np.linalg.norm(herm) / np.linalg.norm(skew) * skew
        verdicts = {
            (Operator(s * tilted, (d,)).is_hermitian(), Operator(s * herm, (d,)).is_psd())
            for s in SCALES
        }
        assert verdicts == {(defect == 0.0, defect == 0.0)}

    def test_equivalence_of_probabilistic_tests(self):
        # teleport:3 is equivalent to its recipe's rebuilt operator, and not
        # to itself with +0.05 on omega's (0,0) entry, at every scale
        t = teleport_test(3)
        bumped = t.omega.matrix.copy()
        bumped[0, 0] += 0.05
        verdicts = set()
        for s in SCALES:
            small = ProbTest(Operator(s * t.omega.matrix, t.omega.dims), t.sigma_A)
            rebuilt = performance_operator(canonical_prob_test(small).as_det_test())
            verdicts.add((
                equivalent_prob(small, ProbTest(rebuilt, t.sigma_A)),
                equivalent_prob(small, ProbTest(Operator(s * bumped, t.omega.dims), t.sigma_A)),
            ))
        assert verdicts == {(True, False)}

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(2, 3), outcomes=st.integers(2, 4), indefinite=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_measure_and_prepare_admission(self, d, outcomes, indefinite, seed):
        # a POVM element's eigenvalues are dimensionless: a POVM normalized
        # from weights written in any unit is admitted, or refused, alike
        rng = np.random.default_rng(seed)
        raw = [rand_density(d, rng).matrix for _ in range(outcomes)]
        if indefinite:
            w, v = np.linalg.eigh(raw[0])
            raw[0] = raw[0] - (w[0] + 1e-3 * w[-1]) * np.outer(v[:, 0], v[:, 0].conj())
        outputs = [rand_density(d, rng).matrix for _ in range(outcomes)]
        verdicts = set()
        for s in SCALES:
            w, v = np.linalg.eigh(sum(s * m for m in raw))
            root = (v / np.sqrt(w)) @ v.conj().T
            try:
                verdicts.add(mp_channel([root @ (s * m) @ root for m in raw], outputs).trace_preserving)
            except ContractError:
                verdicts.add(None)
        assert verdicts == {None if indefinite else True}


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

    def test_malformed_channel_rejected(self):
        with pytest.raises(ContractError):
            channel_from_json({"kraus": "nope"})

    @pytest.mark.parametrize(
        "channel",
        [
            rand_channel(3, 2, 3, np.random.default_rng(5)),
            attenuator_device(0.7).materialize(FockCutoff(12)),
            rescale_mp_device(0.8).materialize(FockCutoff(6)),
        ],
        ids=["complex", "attenuator", "heterodyne"],
    )
    def test_compact_round_trip_is_bit_identical(self, channel):
        data = json.loads(json.dumps(channel_to_json(channel)))
        assert set(data["kraus"]) == (
            {"shape", "index", "re", "im"} if np.iscomplexobj(channel.kraus)
            else {"shape", "index", "re"}
        )
        back = channel_from_json(data)
        assert back.kraus.dtype == channel.kraus.dtype  # a real family stays real
        assert back.kraus.shape == channel.kraus.shape
        assert back.kraus.tobytes() == channel.kraus.tobytes()
        assert back.trace_preserving == channel.trace_preserving
        assert (back.dims_in, back.dims_out) == (channel.dims_in, channel.dims_out)

    @pytest.mark.parametrize("key", ["dims_in", "dims_out"])
    def test_declared_dims_must_match_the_kraus_shape(self, key):
        data = channel_to_json(rand_channel(3, 2, 3, np.random.default_rng(5)))
        data[key] += 1
        with pytest.raises(DimensionError, match="conflicts"):
            channel_from_json(data)

    def test_compact_export_keeps_only_nonzero_entries(self):
        channel = attenuator_device(0.7).materialize(FockCutoff(30))
        kraus = channel_to_json(channel)["kraus"]
        assert kraus["shape"] == [30, 30, 30]
        assert len(kraus["index"]) == np.count_nonzero(channel.kraus) == 30 * 31 // 2

    def test_hand_written_dense_file_still_reads(self):
        text = """{"kraus": [{"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
                             {"re": [[0, 0], [0, 0.6]], "im": [[0, 0], [0, 0.8]]}],
                   "trace_preserving": true}"""
        c = channel_from_json(json.loads(text))
        want = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 0.6 + 0.8j]]])
        assert np.array_equal(c.kraus, want) and c.trace_preserving

    def test_compact_shape_past_the_cap_is_refused_before_allocating(self):
        side = int((ARRAY_MAX_BYTES // 16) ** (1 / 3)) + 2
        data = {"kraus": {"shape": [side, side, side], "index": [0], "re": [1.0]}}
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError, match="MiB"):
                channel_from_json(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    @pytest.mark.parametrize(
        "kraus",
        [
            {"shape": [1, 2, 2], "index": [0, 4], "re": [1.0, 1.0]},  # out of range
            {"shape": [1, 2, 2], "index": [-1], "re": [1.0]},  # negative
            {"shape": [1, 2, 2], "index": [0, 0], "re": [0.5, 0.5]},  # repeated
            {"shape": [1, 2, 2], "index": [0, 3], "re": [1.0]},  # re too short
            {"shape": [1, 2, 2], "index": [0, 3], "re": [1.0, 1.0], "im": [0.0]},
            {"shape": [1, 2, 2], "index": [0.5], "re": [1.0]},  # not an integer
            {"shape": [2, 2], "index": [0], "re": [1.0]},  # not (K, d_out, d_in)
            {"shape": [1, 2, 2], "index": [0, 3]},  # no values
        ],
        ids=["past-end", "negative", "repeated", "short-re", "short-im", "float-index",
             "flat-shape", "no-values"],
    )
    def test_malformed_compact_channel_rejected(self, kraus):
        with pytest.raises(ContractError, match="malformed channel JSON"):
            channel_from_json({"kraus": kraus})
