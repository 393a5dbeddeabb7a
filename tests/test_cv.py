"""Truncated-Fock states, Gaussian stages, setup runs, and the fidelity oracle."""

from __future__ import annotations

import math
import time
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss
from scipy.special import gammaln, pdtrc, xlogy
from scipy.stats import binom, nbinom

from qbench import cv
from qbench.cv import (
    AnalyticDevice,
    CvParams,
    CvSetup,
    FockCutoff,
    additive_noise_channel,
    attenuator_device,
    average_fidelity_oracle,
    beamsplitter,
    build_setup,
    coherent_state,
    coherent_tail,
    displaced_thermal,
    displacement_operator,
    gaussian_observable,
    heterodyne_mp_channel,
    identity_device,
    rescale_mp_device,
    run_analytic,
    run_setup,
    scaled_pair_observable,
    setup_to_json,
    suggest_cutoff,
    thermal_state,
    tmsv,
    two_mode_squeezer,
    vacuum_device,
    ARRAY_MAX_BYTES,
    _amplifier_amplitudes,
    _charge_transfer,
    _coherent_amplitudes,
    _fold_noise,
    _gaussian_kraus,
    _gaussian_transfer,
    _log_factorials,
    _noise_transfer,
    _readout,
    _score_sectors,
    _sectors,
    _transfer_gram,
    _xlogy,
)
from qbench.errors import (
    ContractError,
    CutoffError,
    DimensionError,
    ToolkitError,
    VanishingSuccessError,
)
from qbench.model import Channel

RNG = np.random.default_rng(90210)


@lru_cache(maxsize=8)
def _cutoff(n_max: int, leak_tol: float = 1e-8) -> FockCutoff:
    return FockCutoff(n_max, leak_tol)


@lru_cache(maxsize=4)
def _noise(nu: float, n_max: int, leak_tol: float = 1e-8):
    return additive_noise_channel(nu, _cutoff(n_max, leak_tol))


def _grid_heterodyne_channel(q: float, n_max: int) -> Channel:
    """Quadrature reference for the heterodyne device: the POVM on a square
    outcome grid (step 0.5, radius √n_max + 3), each outcome γ re-preparing
    |qγ⟩, rescaled so that Σ K†K ≤ I."""
    step, radius = 0.5, math.sqrt(n_max) + 3.0
    axis = step * np.arange(-math.ceil(radius / step), math.ceil(radius / step) + 1)
    gammas = (axis[:, None] + 1j * axis[None, :]).reshape(-1)
    gammas = gammas[np.abs(gammas) <= radius]
    meas = _coherent_amplitudes(gammas, n_max)
    prep = _coherent_amplitudes(q * gammas, n_max)
    kraus = math.sqrt(step * step / math.pi) * prep[:, :, None] * meas.conj()[:, None, :]
    flat = kraus.reshape(-1, n_max)
    top = np.max(np.linalg.eigvalsh(flat.conj().T @ flat))
    return Channel(kraus / math.sqrt(max(top, 1.0)), trace_preserving=False)


class TestStates:
    def test_coherent_vacuum(self):
        v = coherent_state(0.0, _cutoff(20))
        assert abs(v.amplitudes[0] - 1.0) < 1e-14
        assert np.all(v.amplitudes[1:] == 0)

    def test_coherent_overlap_law(self):
        cut = _cutoff(40)
        pairs = [(0.4, -0.3), (0.8 + 0.5j, 0.2 - 0.6j), (1.2j, 0.9)]
        for a, b in pairs:
            va = coherent_state(a, cut).amplitudes
            vb = coherent_state(b, cut).amplitudes
            got = abs(np.vdot(va, vb)) ** 2
            assert abs(got - math.exp(-abs(a - b) ** 2)) < 1e-8

    def test_coherent_mean_photon(self):
        cut = _cutoff(40)
        for a in (0.5, 1.1 - 0.7j):
            v = coherent_state(a, cut).amplitudes
            mean = float(np.sum(np.arange(40) * np.abs(v) ** 2))
            assert abs(mean - abs(a) ** 2) < 1e-8

    def test_coherent_cutoff_failure_suggests_fix(self):
        with pytest.raises(CutoffError) as exc:
            coherent_state(3.0, _cutoff(10))
        assert exc.value.suggested_n_max is not None
        cut = FockCutoff(exc.value.suggested_n_max)
        coherent_state(3.0, cut)  # suggestion is sufficient

    def test_suggest_cutoff_monotone(self):
        assert suggest_cutoff(1.0, 1e-8) < suggest_cutoff(3.0, 1e-8)

    def test_thermal_geometric(self):
        th = thermal_state(0.5, _cutoff(40)).matrix
        diag = np.diag(th).real
        assert abs(np.sum(diag) - 1.0) < 1e-9
        ratios = diag[1:10] / diag[:9]
        assert np.max(np.abs(ratios - 0.5)) < 1e-12

    def test_thermal_leak_guard(self):
        with pytest.raises(CutoffError):
            thermal_state(0.9, _cutoff(20))

    def test_displaced_thermal_reduces_to_thermal(self):
        got = displaced_thermal(0.0, 1.0, _cutoff(30)).matrix
        ref = thermal_state(0.5, _cutoff(30)).matrix
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_displaced_thermal_infinite_mu_is_coherent(self):
        got = displaced_thermal(0.7, math.inf, _cutoff(30)).matrix
        v = coherent_state(0.7, _cutoff(30)).amplitudes
        assert np.max(np.abs(got - np.outer(v, v.conj()))) < 1e-12

    def test_displaced_thermal_matches_quadrature_mixture(self):
        cut = _cutoff(30)
        alpha, mu = 0.4 + 0.2j, 2.0
        rho = displaced_thermal(alpha, mu, cut).matrix
        x, w = hermgauss(24)
        betas = (x[:, None] + 1j * x[None, :]).reshape(-1) / math.sqrt(mu)
        ww = (w[:, None] * w[None, :]).reshape(-1)
        mix = np.zeros((30, 30), dtype=complex)
        for b, wt in zip(betas, ww):
            v = displacement_operator(alpha + b, 30)[:, 0]  # truncated |α+β>
            mix += wt * np.outer(v, v.conj())
        mix /= np.sum(ww)
        assert np.max(np.abs(rho - mix)) < 1e-9

    def test_tmsv_zero_is_double_vacuum(self):
        v = tmsv(0.0, _cutoff(12))
        assert abs(v.amplitudes[0] - 1.0) < 1e-14
        assert np.linalg.norm(v.amplitudes[1:]) == 0

    def test_tmsv_marginal_is_thermal(self):
        cut = _cutoff(60)
        rho = tmsv(0.5, cut).density()
        mat = rho.matrix.reshape(60, 60, 60, 60)
        marginal = np.einsum("arbr->ab", mat)
        ref = thermal_state(0.5, cut).matrix
        assert np.max(np.abs(marginal - ref)) < 1e-9

    def test_tmsv_schmidt_profile(self):
        x = 0.3
        amp = tmsv(x, _cutoff(30)).amplitudes.reshape(30, 30)
        diag = np.diag(amp).real
        assert np.max(np.abs(diag[:10] / diag[0] - np.sqrt(x) ** np.arange(10))) < 1e-10
        off = amp - np.diag(np.diag(amp))
        assert np.max(np.abs(off)) == 0

    def test_tmsv_leak_guard_suggests(self):
        with pytest.raises(CutoffError) as exc:
            tmsv(2.0 / 3.0, _cutoff(40))
        assert exc.value.suggested_n_max >= 46


def _pdtrc_cutoff(alpha: float, tol: float) -> int:
    """``suggest_cutoff``'s doubling-then-bisection, driven by scipy's ``pdtrc``."""
    lo, hi = 1, 2
    while pdtrc(hi - 1, alpha * alpha) > tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if pdtrc(mid - 1, alpha * alpha) > tol else (lo, mid)
    return hi


class TestSpecialFunctionsAgainstScipy:
    """The numpy-only closed forms against ``scipy.special`` as the reference."""

    def test_coherent_tail_matches_pdtrc(self):
        worst = 0.0
        for n_max in range(1, 81):
            for mu in np.linspace(0.0, 40.0, 161):
                ref = pdtrc(n_max - 1, mu)
                got = coherent_tail(math.sqrt(mu), n_max)
                if ref == 0.0:
                    assert got == 0.0, (n_max, mu, got)
                else:
                    worst = max(worst, abs(got - ref) / ref)
        assert worst < 1e-12, worst

    @pytest.mark.parametrize("alpha, n_max", [(100.0, 10**4), (40.0, 1700)])
    def test_coherent_tail_matches_pdtrc_at_large_mean(self, alpha, n_max):
        # ln of the first term is the small sum of parts near 1e5 in size,
        # which a plain j ln μ − μ − ln j! would leave 1e-11 off
        ref = pdtrc(n_max - 1, alpha * alpha)
        assert abs(coherent_tail(alpha, n_max) - ref) <= 1e-13 * ref

    def test_coherent_tail_at_the_edges(self):
        assert coherent_tail(0.0, 5) == 0.0
        assert coherent_tail(2.0, 0) == 1.0
        assert coherent_tail(30.0, 10) == 1.0  # the head underflows

    def test_log_factorial_table_matches_gammaln(self):
        n_max = 200
        levels = np.arange(2 * n_max)
        np.testing.assert_allclose(
            _log_factorials(2 * n_max), gammaln(levels + 1.0), rtol=1e-15, atol=0
        )

    def test_xlogy_keeps_zero_to_the_zero(self):
        x = np.array([0.0, 0.0, 1.0, 3.0, 2.5])
        for y in (0.0, 0.3, 1.0, 7.5):
            np.testing.assert_array_equal(_xlogy(x, y), xlogy(x, y))
        mags = np.array([[0.0], [0.4], [2.0]])
        levels = np.arange(5)
        np.testing.assert_allclose(_xlogy(levels, mags), xlogy(levels, mags), rtol=1e-15)

    def test_suggest_cutoff_matches_pdtrc_bisection(self):
        pairs = [(0.1 * i, 10.0**-e) for i in range(66) for e in range(4, 14)]
        assert len(pairs) == 660
        mismatches = [
            (a, tol) for a, tol in pairs if suggest_cutoff(a, tol) != _pdtrc_cutoff(a, tol)
        ]
        assert not mismatches


class TestStageUnitaries:
    @pytest.mark.parametrize("conserved", ["difference", "total"])
    def test_sectors_match_a_scan_per_charge(self, conserved):
        for n in range(1, 13):
            p, q = np.divmod(np.arange(n * n), n)
            charge = p - q if conserved == "difference" else p + q
            want = [np.flatnonzero(charge == value) for value in np.unique(charge)]
            got = _sectors(n, conserved)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_squeezer_zero_angle(self):
        s = two_mode_squeezer(0.0, _cutoff(10))
        assert np.max(np.abs(s.matrix - np.eye(100))) < 1e-12

    def test_squeezer_block_unitary(self):
        s = two_mode_squeezer(0.7, _cutoff(14))
        gram = s.matrix.conj().T @ s.matrix
        assert np.max(np.abs(gram - np.eye(14 * 14))) < 1e-10

    def test_squeezer_inverse_generates_tmsv(self):
        # S_theta† |00> is the positive-amplitude two-mode squeezed vacuum;
        # S_theta itself lands on the alternating-sign cousin
        cut = _cutoff(60)
        theta = 0.6
        s = two_mode_squeezer(theta, cut)
        v00 = np.zeros(3600)
        v00[0] = 1.0
        out = s.matrix.conj().T @ v00
        ref = tmsv(math.tanh(theta) ** 2, cut).amplitudes
        assert abs(np.vdot(ref, out)) ** 2 >= 1.0 - 1e-6
        alt = s.matrix @ v00
        signs = np.sign(np.diag(alt.reshape(60, 60)).real[:8])
        assert np.max(np.abs(signs - (-1.0) ** np.arange(8))) == 0

    def test_squeezer_displacement_covariance(self):
        cut = _cutoff(60)
        theta = 0.7
        s = two_mode_squeezer(theta, cut).matrix
        ch, sh = math.cosh(theta), math.sinh(theta)
        v00 = np.zeros(3600)
        v00[0] = 1.0
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = (rng.normal() + 1j * rng.normal()) * 0.4
            b = (rng.normal() + 1j * rng.normal()) * 0.4
            d_in = np.kron(
                displacement_operator(a, 60), displacement_operator(b, 60)
            )
            ap = a * ch - np.conj(b) * sh
            bp = b * ch - np.conj(a) * sh
            d_out = np.kron(
                displacement_operator(ap, 60), displacement_operator(bp, 60)
            )
            lhs = s @ (d_in @ v00)
            rhs = d_out @ (s @ v00)
            assert np.linalg.norm(lhs - rhs) < 1e-5

    def test_beamsplitter_identity_at_full_transmission(self):
        b = beamsplitter(1.0, _cutoff(8))
        assert np.max(np.abs(b.matrix - np.eye(64))) < 1e-12

    def test_beamsplitter_single_photon(self):
        b = beamsplitter(0.5, _cutoff(4))
        v = np.zeros(16)
        v[1 * 4 + 0] = 1.0
        out = b.matrix @ v
        assert abs(out[1 * 4 + 0] - 1 / math.sqrt(2)) < 1e-12
        assert abs(out[0 * 4 + 1] + 1 / math.sqrt(2)) < 1e-12

    def test_beamsplitter_merges_scaled_coherent_pair(self):
        cut = _cutoff(50)
        c = 1.0 / math.sqrt(2.0)  # the g = k = 1 working point
        t = c * c / (c * c + 1.0)
        b = beamsplitter(t, cut)
        gamma = 0.9
        vin = np.kron(
            coherent_state(c * gamma, cut).amplitudes,
            coherent_state(gamma, cut).amplitudes,
        )
        vref = np.kron(
            coherent_state(math.sqrt(c * c + 1) * gamma, cut).amplitudes,
            coherent_state(0.0, cut).amplitudes,
        )
        fid = abs(np.vdot(vref, b.matrix @ vin)) ** 2
        assert fid >= 1.0 - 1e-6

    def test_dense_references_past_the_byte_cap_are_refused_before_allocating(
        self, monkeypatch
    ):
        # a dense two-mode matrix takes 16·n_max⁴ bytes: 0.98 GiB at n_max 90,
        # 1.02 GiB at 91
        builders = (
            lambda cut: two_mode_squeezer(0.3, cut),
            lambda cut: beamsplitter(0.5, cut),
            lambda cut: scaled_pair_observable(0.5, cut),
        )
        tracemalloc.start()
        try:
            for build in builders:
                with pytest.raises(CutoffError) as err:
                    build(_cutoff(91))
                assert err.value.suggested_n_max == 90
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert 16 * 90**4 <= ARRAY_MAX_BYTES < 16 * 91**4

        # at n_max 90 the check passes and the dense allocation is reached
        class Reached(Exception):
            pass

        def zeros(shape, dtype=float):
            raise Reached(shape)

        monkeypatch.setattr(np, "zeros", zeros)
        for build in builders:
            with pytest.raises(Reached) as reached:
                build(_cutoff(90))
            assert reached.value.args[0] == (8100, 8100)


def _quadrature_pair_observable(c: float, n: int, conjugate_reference: bool) -> np.ndarray:
    """Reference W_c by Gauss–Laguerre (radial) × uniform angular quadrature.

    Both rules are exact for the polynomial integrand: the radial factor is
    a polynomial in u = (1+c²)r² of degree ≤ 2n − 2 and the angular
    harmonics stay below the angle count, so only roundoff remains.
    """
    s = 1.0 + c * c
    levels = np.arange(n)
    half_log_fact = 0.5 * gammaln(levels + 1.0)
    m_ang = 2 * n + 4
    ang = np.exp(2j * np.pi * np.outer(levels, np.arange(m_ang)) / m_ang)
    ref = ang.conj() if conjugate_reference else ang
    out = np.zeros((n * n, n * n), dtype=complex)
    for u, w in zip(*laggauss(n + 8)):
        r = math.sqrt(u / s)
        amp_a = np.exp(levels * math.log(c * r) - half_log_fact)[:, None] * ang
        amp_b = np.exp(levels * math.log(r) - half_log_fact)[:, None] * ref
        cols = (amp_a[:, None, :] * amp_b[None, :, :]).reshape(n * n, m_ang)
        cols *= math.sqrt(w / (s * m_ang))
        out += cols @ cols.conj().T
    return out


class TestObservables:
    def test_gaussian_observable_vacuum_and_thermal(self):
        theta, y = 0.7, 0.3
        g = gaussian_observable(theta, _cutoff(40))
        assert abs(g.matrix[0, 0] - 1.0) < 1e-14
        th = thermal_state(y, _cutoff(40)).matrix
        got = float(np.trace(g.matrix @ th).real)
        want = (1 - y) / (1 - y * math.tanh(theta) ** 2)
        assert abs(got - want) < 1e-8

    def test_heterodyne_weight_reproduces_moments(self):
        for theta in (0.4, 0.88):
            u, w = laggauss(60)
            scale = 1.0 + 1.0 / math.sinh(theta) ** 2
            for n in range(11):
                integral = float(
                    np.sum(w * (u / scale) ** n / math.factorial(n))
                    * math.tanh(theta) ** (-2.0)
                    / scale
                )
                assert abs(integral - math.tanh(theta) ** (2 * n)) < 1e-6

    @pytest.mark.parametrize("n", [10, 30])
    @pytest.mark.parametrize("c", [0.5, 0.85, 1.3])
    @pytest.mark.parametrize("conjugate_reference", [True, False])
    def test_pair_observable_closed_form_matches_quadrature(self, n, c, conjugate_reference):
        got = scaled_pair_observable(c, _cutoff(n), conjugate_reference).matrix
        ref = _quadrature_pair_observable(c, n, conjugate_reference)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_pair_observable_corner_elements(self):
        c = 0.6
        w = scaled_pair_observable(c, _cutoff(24)).matrix
        n = 24
        assert abs(w[0, 0] - 1 / (1 + c * c)) < 1e-10
        assert abs(w[0, 1 * n + 1] - c / (1 + c * c) ** 2) < 1e-10

    def test_pair_observable_support_pattern(self):
        n = 12
        w = scaled_pair_observable(0.8, _cutoff(n), conjugate_reference=True).matrix
        v = scaled_pair_observable(0.8, _cutoff(n), conjugate_reference=False).matrix
        w4 = w.reshape(n, n, n, n)
        v4 = v.reshape(n, n, n, n)
        for m, p, q, r in [(3, 1, 2, 1), (4, 0, 1, 2), (5, 2, 3, 3)]:
            if m - q != p - r:
                assert abs(w4[m, p, q, r]) < 1e-12
            if m + p != q + r:
                assert abs(v4[m, p, q, r]) < 1e-12

    def test_pair_observable_thermal_pairing(self):
        c, x = 0.6, 0.4
        n = 30
        w = scaled_pair_observable(c, _cutoff(n)).matrix.reshape(n, n, n, n)
        th = np.diag(thermal_state(x, _cutoff(n)).matrix).real
        got = float(np.sum(np.diag(w[0, :, 0, :]).real * th))
        want = (1 - x) / (c * c + 1 - x)
        assert abs(got - want) < 1e-8

    def test_fidelity_reduction_low_gain(self):
        # W_c = S† (G ⊗ I) S at tanh(theta) = c for c < 1
        c = 1.0 / math.sqrt(2.0)
        cut = _cutoff(44)
        w = scaled_pair_observable(c, cut).matrix
        theta = math.atanh(c)
        s = two_mode_squeezer(theta, cut).matrix
        gd = np.tanh(theta) ** (2.0 * np.arange(44))
        rhs = s.conj().T @ np.kron(np.diag(gd), np.eye(44)).astype(complex) @ s
        blk = [a * 44 + b for a in range(14) for b in range(14)]
        assert np.max(np.abs(w[np.ix_(blk, blk)] - rhs[np.ix_(blk, blk)])) < 1e-6

    def test_fidelity_reduction_high_gain(self):
        # above the boundary the ports mirror and the Jacobian 1/c² appears
        c = math.sqrt(2.0)
        cut = _cutoff(44)
        w = scaled_pair_observable(c, cut).matrix
        theta = math.atanh(1.0 / c)
        s = two_mode_squeezer(theta, cut).matrix
        gd = np.tanh(theta) ** (2.0 * np.arange(44))
        rhs = (
            s.conj().T @ np.kron(np.eye(44), np.diag(gd)).astype(complex) @ s
        ) / (c * c)
        blk = [a * 44 + b for a in range(10) for b in range(10)]
        assert np.max(np.abs(w[np.ix_(blk, blk)] - rhs[np.ix_(blk, blk)])) < 1e-6

    def test_conjugation_reduction(self):
        # U_t V U_t† concentrates on the no-photon reference outcome
        params = CvParams(g=1.0, lam=1.0, conjugate=True)
        cut = _cutoff(40)
        c = params.g * params.k
        v = scaled_pair_observable(c, cut, conjugate_reference=False).matrix
        setup = build_setup(params, cut)
        u = beamsplitter(setup.bs_t, cut).matrix
        lhs = u @ v @ u.conj().T
        proj = np.zeros((40, 40))
        proj[0, 0] = 1.0
        rhs = np.kron(np.eye(40), proj) / (c * c + 1)
        blk = [a * 40 + b for a in range(16) for b in range(16)]
        assert np.max(np.abs(lhs[np.ix_(blk, blk)] - rhs[np.ix_(blk, blk)])) < 1e-6


class TestNoiseChannel:
    def test_infinite_nu_is_identity(self):
        ch = additive_noise_channel(math.inf, _cutoff(10))
        assert ch.trace_preserving
        assert len(ch.kraus) == 1

    def test_vacuum_gains_one_photon_at_unit_nu(self):
        ch = _noise(1.0, 40)
        rho = np.zeros((40, 40), dtype=complex)
        rho[0, 0] = 1.0
        out = sum(k @ rho @ k.conj().T for k in ch.kraus)
        mean = float(np.sum(np.arange(40) * np.diag(out).real))
        assert abs(np.trace(out).real - 1.0) < 1e-7
        assert abs(mean - 1.0) < 1e-6

    def test_displacement_covariance_on_coherent_states(self):
        # N(|α><α|) is exactly the displaced thermal state with mu = nu
        ch = _noise(2.0, 40)
        cut = _cutoff(40)
        for alpha in (0.3, 0.5 - 0.4j, 1.0j):
            v = coherent_state(alpha, cut).amplitudes
            out = sum(
                k @ np.outer(v, v.conj()) @ k.conj().T for k in ch.kraus
            )
            ref = displaced_thermal(alpha, 2.0, cut).matrix
            assert np.max(np.abs(out - ref)) < 1e-9

    def test_self_adjoint_superoperator(self):
        # the kept block of a self-adjoint channel: Tr[A† N(B)] = Tr[N(A)† B]
        ch = _noise(3.0, 40, 1e-6)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        b = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        na = sum(k @ a @ k.conj().T for k in ch.kraus)
        nb = sum(k @ b @ k.conj().T for k in ch.kraus)
        lhs = np.trace(a.conj().T @ nb)
        rhs = np.trace(na.conj().T @ b)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_deficit_reported_and_guarded(self):
        ch = _noise(3.0, 40, 1e-6)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.diag(np.diag(total)))) < 1e-12
        assert np.max(np.abs(1.0 - np.diag(total).real[:10])) < 1e-5
        assert np.max(np.linalg.eigvalsh(total)) <= 1.0 + 1e-12
        assert not ch.trace_preserving
        with pytest.raises(CutoffError):
            additive_noise_channel(0.5, _cutoff(40))
        # run_setup shares the guard: nu = 0.5 here too
        setup = build_setup(CvParams(g=2.0, lam=1.0, mu=1.0), _cutoff(40, 1e-6))
        with pytest.raises(CutoffError, match="noise channel nu=0.5"):
            run_setup(setup, Channel.identity(40))


def _phase_covariant_kraus(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Random Kraus operators, each shifting the photon number by a fixed step."""
    ks = np.zeros((count, n, n), dtype=complex)
    for k in ks:
        shift = int(rng.integers(-(n - 1), n))
        rows = np.arange(max(0, shift), min(n, n + shift))
        k[rows, rows - shift] = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    return ks


def _gram(vectors: np.ndarray, conjugate: bool):
    """The sector Gram of the family ``vectors``, read from its charge arrays."""
    return _transfer_gram(_charge_transfer(vectors, conjugate), conjugate)


class TestNoiseTransferMatrix:
    def test_transfer_matrix_matches_kraus_loop(self):
        # T[δ, x, u] is the |x⟩⟨x−δ| element of N(|u⟩⟨u−δ|), by the explicit loop
        n = 6
        ks = _phase_covariant_kraus(np.random.default_rng(17), n, 9)
        got = _charge_transfer(ks)
        for d in range(n):
            for u in range(n):
                unit = np.zeros((n, n), dtype=complex)
                if u >= d:
                    unit[u, u - d] = 1.0
                out = sum(k @ unit @ k.conj().T for k in ks)
                for x in range(n):
                    want = out[x, x - d] if x >= d else 0.0
                    assert abs(got[d, x, u] - want) < 1e-12
                # phase covariance: nothing leaves charge d
                mask = np.subtract.outer(np.arange(n), np.arange(n)) != d
                assert np.max(np.abs(out[mask]), initial=0.0) < 1e-12

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_charge_arrays_of_any_family_match_the_map(self, conjugate):
        # T[δ] (A[δ]) is the |x⟩⟨x−δ| element of N(|u⟩⟨u−δ|) (of N(|u−δ⟩⟨u|))
        # for a family that mixes charges
        n = 5
        rng = np.random.default_rng(23)
        ks = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        got = _charge_transfer(ks, conjugate)
        for d in range(n):
            for u in range(d, n):
                unit = np.zeros((n, n), dtype=complex)
                unit[(u - d, u) if conjugate else (u, u - d)] = 1.0
                out = sum(k @ unit @ k.conj().T for k in ks)
                want = [out[x, x - d] if x >= d else 0.0 for x in range(n)]
                np.testing.assert_allclose(got[d, :, u], want, atol=1e-12)
        np.testing.assert_array_equal(_charge_transfer(ks, True)[0], _charge_transfer(ks)[0])

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_fold_matches_schrodinger_picture(self, conjugate):
        # Tr[(N† ⊗ I)(O) ρ] = Tr[O (N ⊗ I)(ρ)] for a complex, non-self-adjoint
        # phase-covariant N, on both sector kinds
        n = 7
        rng = np.random.default_rng(41)
        ks = _phase_covariant_kraus(rng, n, 5)
        setup = build_setup(CvParams(g=1.2, lam=2.0, conjugate=conjugate), _cutoff(n, 0.5))
        readout = _readout(setup)
        folded = _fold_noise(readout, _charge_transfer(ks))
        vectors = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        moved = np.einsum("jxa,kar->jkxr", ks, vectors).reshape(-1, n, n)
        ones = np.ones(n)
        want = _score_sectors(readout, _gram(moved, conjugate), ones)
        got = _score_sectors(folded, _gram(vectors, conjugate), ones)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_channel_kraus_match_noise_transfer(self):
        # additive_noise_channel and run_setup apply one map
        ch = _noise(2.0, 20)
        assert len(ch.kraus) == 20 * 20
        assert np.max(np.abs(_charge_transfer(ch.kraus) - _noise_transfer(2.0, 20))) < 1e-13

    def test_noise_is_exact_on_kept_block(self):
        # a taller cutoff adds levels but changes no kept element
        small, tall = _noise_transfer(4.0, 16), _noise_transfer(4.0, 32)
        assert np.max(np.abs(small - tall[:16, :16, :16])) < 1e-14

    def test_conjugation_readout_is_closed_form(self, monkeypatch):
        # the no-click readout comes from W_c's plain-reference form, not
        # from exponentiating beamsplitter sectors
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        _readout(build_setup(CvParams(g=1.0, lam=1.0, conjugate=True), _cutoff(20)))
        assert not calls

    def test_noise_fold_past_the_byte_cap_is_refused_before_allocating(self):
        # the fold peaks at ~117·n_max³ bytes: about 3 GiB at n_max 300
        setup = build_setup(CvParams(lam=4.0, mu=4.0), _cutoff(300))
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError) as err:
                _readout(setup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        n = err.value.suggested_n_max
        assert 117 * n**3 <= ARRAY_MAX_BYTES < 117 * (n + 1) ** 3

    def test_conjugation_rows_match_full_beamsplitter(self):
        n = 8
        cut = _cutoff(n, 1e-2)
        setup = build_setup(CvParams(g=1.0, lam=4.0, conjugate=True), cut)
        rng = np.random.default_rng(23)
        vectors = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
        flat = vectors.reshape(4, -1)
        obs = setup.weight * _no_click_observable(setup.bs_t, n)
        got = _score_sectors(_readout(setup), _gram(vectors, True), np.ones(n))
        assert abs(got - np.trace(obs @ (flat.T @ flat.conj())).real) < 1e-10

    @pytest.mark.parametrize(
        "params",
        [
            CvParams(g=1.0, lam=4.0, mu=5.0),
            CvParams(g=1.0, lam=4.0, mu=5.0, conjugate=True),
            CvParams(g=2.5, lam=1.0),
            CvParams(g=1.3, lam=1.0),
        ],
    )
    def test_density_and_vector_routes_agree(self, params):
        n = 20
        cut = _cutoff(n, 1e-6)
        setup = build_setup(params, cut)
        rng = np.random.default_rng(29)
        vectors = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        vectors *= np.sqrt(0.2) ** np.arange(n)[None, :, None]
        vectors *= np.sqrt(0.2) ** np.arange(n)[None, None, :]
        got = _score_sectors(_readout(setup), _gram(vectors, params.conjugate), np.ones(n))
        dense = _dense_score(setup, vectors)
        assert abs(got - dense) < 1e-12 * max(1.0, abs(dense))

    def test_noisy_conjugation_reference_value(self):
        # attenuator:0.8 --conjugate --mu 2 at n_max 40, g = lam = 1; the
        # closed form is 0.3768891807222, and the run reads 5.0e-10 above it
        params = CvParams(g=1.0, lam=1.0, mu=2.0, conjugate=True)
        setup = build_setup(params, FockCutoff(40))
        device = attenuator_device(0.8)
        score, _ = run_setup(setup, device.materialize(setup.cutoff))
        assert abs(device.average_fidelity(params) - 0.3768891807222) < 1e-13
        assert abs(score - device.average_fidelity(params)) < 1e-9
        assert abs(score - 0.3768891812257237) < 1e-10


def _no_click_observable(t: float, n: int) -> np.ndarray:
    """P U†(I ⊗ |0⟩⟨0|) U P: the no-click readout of the beamsplitter ``t``
    compressed onto the n-level input.  U is built on 2n − 1 levels a mode,
    where every total-photon sector that the input reaches is whole, so each
    kept element is exact."""
    m = 2 * n - 1
    u = beamsplitter(t, FockCutoff(m)).matrix.reshape(m, m, m, m)
    rows = u[:, 0, :n, :n].reshape(m, n * n)  # ⟨x, 0| U on the input
    return rows.conj().T @ rows


def _dense_score(setup: CvSetup, vectors: np.ndarray) -> float:
    """Tr[O · (N ⊗ I)(ρ)] for ρ = Σ_k |v_k⟩⟨v_k|, with O the setup's weighted
    observable from the public dense builders and N the additive-noise
    channel's Kraus operators applied to the device mode, as a density
    matrix."""
    params, cut = setup.params, setup.cutoff
    n = cut.n_max
    if params.conjugate:
        gk = params.g * params.k
        obs = _no_click_observable(gk * gk / (gk * gk + 1.0), n) / (gk * gk + 1.0)
    else:
        pure = math.isinf(params.mu)
        c = params.g / math.sqrt(params.lam + 1.0) if pure else params.g * params.k
        obs = scaled_pair_observable(c, cut).matrix
    noise = additive_noise_channel(params.nu, cut).kraus
    noisy = np.einsum("jxa,kar->jkxr", np.asarray(noise), vectors).reshape(-1, n * n)
    rho = noisy.T @ noisy.conj()
    return float(np.trace(obs @ rho).real)


@pytest.mark.parametrize("branch", ["pure", "mixed", "conjugation", "noisy_conjugation"])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(6, 12),
    low_c=st.floats(0.3, 0.9),
    high=st.booleans(),
    lam=st.floats(0.02, 0.2),
    mu=st.floats(30.0, 80.0),
    kraus_count=st.integers(1, 4),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_setup_matches_dense_reference(
    branch, n, low_c, high, lam, mu, kraus_count, real, seed
):
    """run_setup against the dense Tr[O · (N ⊗ I)(ρ)] on random small devices,
    real (as every exported built-in device is) or complex."""
    # c is the pair-observable scale gk (mixed, conjugation) or g/√(λ+1),
    # drawn on both sides of the squeezer boundary c = 1
    c = 2.0 - low_c if high else low_c
    noisy = branch in ("mixed", "noisy_conjugation")
    probe = CvParams(lam=lam, mu=mu if noisy else math.inf)
    g = c / probe.k if noisy or branch == "conjugation" else c * math.sqrt(lam + 1.0)
    params = CvParams(g=g, lam=lam, mu=probe.mu, conjugate="conjugation" in branch)
    cut = FockCutoff(n, leak_tol=0.99)  # an algebraic identity: any truncation
    setup = build_setup(params, cut)
    rng = np.random.default_rng(seed)
    ks = rng.normal(size=(kraus_count, n, n))
    if not real:
        ks = ks + 1j * rng.normal(size=(kraus_count, n, n))
    ks /= math.sqrt(np.max(np.linalg.eigvalsh(np.einsum("kxa,kxb->ab", ks.conj(), ks))))
    device = Channel(list(ks), trace_preserving=False)
    try:
        score, p_succ = run_setup(setup, device)
    except CutoffError:
        # the noise deficit guard is shared with the public channel
        with pytest.raises(CutoffError):
            additive_noise_channel(params.nu, cut)
        return
    vectors = ks * tmsv(setup.x, cut).amplitudes.reshape(n, n).diagonal()
    assert abs(p_succ - float(np.vdot(vectors, vectors).real)) < 1e-12
    want = _dense_score(setup, vectors) / p_succ
    assert abs(score - want) < 1e-10 * max(1.0, abs(want))


class TestAnalyticDevices:
    def test_kernels_match_materialized_channels(self):
        cut = _cutoff(40)
        probes = [(0.4, 0.4), (0.7 - 0.2j, 0.5 + 0.1j), (0.9j, 0.3)]
        devices = [
            identity_device(),
            attenuator_device(0.7),
            vacuum_device(),
            rescale_mp_device(1.3),
        ]
        for dev in devices:
            ch = dev.materialize(cut)
            for u, v in probes:
                vu = coherent_state(u, cut).amplitudes
                vv = coherent_state(v, cut).amplitudes
                got = sum(abs(np.vdot(vv, k @ vu)) ** 2 for k in ch.kraus)
                want = float(dev.pure_fidelity(u, v).real)
                assert abs(got - want) < 1e-6, dev.kind

    def test_pure_fidelity_matches_per_kind_closed_forms(self):
        # the kernels written out per kind, independent of the (η, G) map
        rng = np.random.default_rng(3)
        u = rng.normal(size=50) + 1j * rng.normal(size=50)
        v = rng.normal(size=50) + 1j * rng.normal(size=50)
        t, q = 0.63, 1.3
        cases = [
            (identity_device(), np.exp(-np.abs(u - v) ** 2)),
            (attenuator_device(t), np.exp(-np.abs(math.sqrt(t) * u - v) ** 2)),
            (vacuum_device(), np.exp(-np.abs(v) ** 2)),
            (
                rescale_mp_device(q),
                np.exp(-np.abs(q * u - v) ** 2 / (1 + q * q)) / (1 + q * q),
            ),
        ]
        for dev, want in cases:
            assert np.max(np.abs(dev.pure_fidelity(u, v) - want)) < 1e-14, dev.kind

    @pytest.mark.parametrize("q", [0.0, 0.6, 1.0])
    def test_heterodyne_deficit_is_only_the_amplifier_spill(self, q):
        # Σ K†K = I − spill: level n keeps m ~ Binomial(n, η) photons, the
        # amplifier adds NegBinomial(m + 1, 1/G) to them, and what lands at
        # or past n_max is the only loss (none when G = 1)
        n_max = 30
        ch = heterodyne_mp_channel(q, _cutoff(n_max))
        eta, gain = q * q / (1 + q * q), 1 + q * q
        flat = ch.kraus.reshape(-1, n_max)
        total = flat.T @ flat
        spill = np.zeros(n_max)
        for n in range(n_max):
            m = np.arange(n + 1)  # photons left after the attenuator
            spill[n] = np.sum(binom.pmf(m, n, eta) * nbinom.sf(n_max - 1 - m, m + 1, 1 / gain))
        assert np.max(np.abs(total - np.diag(1.0 - spill))) < 1e-13
        assert ch.trace_preserving == (q == 0.0)
        if q:
            assert 0 < spill[0] < spill[-1] < 1
        else:
            # q = 0 re-prepares vacuum: L_m = |0⟩⟨m|, exactly
            assert np.array_equal(ch.kraus[:, 0, :], np.eye(n_max))
            assert not np.any(ch.kraus[:, 1:, :])

    @pytest.mark.parametrize("n_max", [30, 40])
    def test_heterodyne_matches_grid_quadrature(self, n_max):
        # the exact device against the square-grid POVM it replaces, within
        # the grid's aliasing exp(−π²/((1+q²)Δ²)) (~3e-9 at q = 1, Δ = 0.5)
        cut = _cutoff(n_max)
        for q in (0.7, 1.0):
            exact = heterodyne_mp_channel(q, cut)
            grid = _grid_heterodyne_channel(q, n_max)
            for u, v in [(0.4, 0.4), (0.7 - 0.2j, 0.5 + 0.1j), (0.9j, 0.3), (1.5, -0.5j)]:
                vu = coherent_state(u, cut).amplitudes
                vv = coherent_state(v, cut).amplitudes
                got = [
                    float(np.sum(np.abs(np.einsum("a,kab,b->k", vv.conj(), ch.kraus, vu)) ** 2))
                    for ch in (exact, grid)
                ]
                assert abs(got[0] - got[1]) < 1e-8, (q, u, v)
                assert abs(got[0] - float(rescale_mp_device(q).pure_fidelity(u, v))) < 1e-12
            for params in (CvParams(g=1.0, lam=1.0), CvParams(g=1.0, lam=1.5, conjugate=True)):
                setup = build_setup(params, cut)
                a, b = run_setup(setup, exact), run_setup(setup, grid)
                assert abs(a[0] - b[0]) < 1e-8, (q, params)
                assert abs(a[1] - b[1]) < 1e-8, (q, params)

    def test_run_setup_makes_no_copy_of_the_kraus_array(self):
        # the 1600-operator heterodyne export, real and phase-rotated complex
        # (20 and 39 MiB), against the run's n_max³ arrays
        cut = _cutoff(40)
        real = rescale_mp_device(1.0).materialize(cut)
        rotated = real.kraus * np.exp(0.7j * np.arange(40))[:, None]
        setup = build_setup(CvParams(g=1.0, lam=1.0), cut)
        for device in (real, Channel(rotated, trace_preserving=False)):
            run_setup(setup, device)  # first-call costs outside the trace
            tracemalloc.start()
            try:
                run_setup(setup, device)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < device.kraus.nbytes // 8, (peak, device.kraus.dtype)

    def test_kraus_run_past_the_byte_cap_is_refused_before_allocating(self):
        # one guard for both device kinds: 32·600³ bytes is 6.4 GiB, though
        # the identity's own Kraus array is 2.7 MiB
        setup = build_setup(CvParams(g=1.0, lam=1.0), _cutoff(600))
        device = Channel.identity(600)
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError, match="n_max=600"):
                run_setup(setup, device)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_analytic_run_holds_no_kraus_array(self):
        # heterodyne-mp at n_max 80: the Kraus export alone is 8·80⁴ = 328 MB
        setup = build_setup(CvParams(g=1.0, lam=1.0), _cutoff(80))
        device = rescale_mp_device(1.0)
        run_analytic(setup, device)  # first-call costs outside the trace
        tracemalloc.start()
        try:
            run_analytic(setup, device)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, peak

    def test_analytic_run_past_the_byte_cap_is_refused_before_allocating(self):
        # the charge-block run takes ~32·n_max³ bytes: about 1.9 GiB at n_max 400
        setup = build_setup(CvParams(g=1.0, lam=1.0), _cutoff(400))
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError, match="n_max=400") as err:
                run_analytic(setup, rescale_mp_device(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        n = err.value.suggested_n_max
        assert 32 * n**3 <= ARRAY_MAX_BYTES < 32 * (n + 1) ** 3

    def test_kraus_past_the_byte_cap_is_refused_before_allocating(self):
        # gain > 1 stacks n_max² operators: 8·200⁴ bytes = 12.8 GB here
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError) as err:
                _gaussian_kraus(0.5, 2.0, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        n = err.value.suggested_n_max
        assert n == 107 and 8 * n**4 <= ARRAY_MAX_BYTES < 8 * (n + 1) ** 4

    def test_charge_zero_build_is_charge_zero_of_the_full_array(self):
        # the conjugation run's charge-0 build, bit for bit
        for eta, gain in [(1.0, 1.0), (0.0, 1.0), (0.63, 1.0), (0.5, 2.0), (0.2, 3.7)]:
            for n in (2, 17, 40):
                full = _gaussian_transfer(eta, gain, n)
                zero = _gaussian_transfer(eta, gain, n, charge0=True)
                assert zero.shape == (1, n, n)
                np.testing.assert_array_equal(zero, full[:1])

    def test_conjugation_run_builds_charge_zero_only(self):
        # heterodyne-mp at n_max 150 under conjugation: readout blocks and
        # n² matrices, against 86 MiB with every charge built
        setup = build_setup(CvParams(g=1.0, lam=1.0, conjugate=True), _cutoff(150))
        device = rescale_mp_device(1.0)
        run_analytic(setup, device)  # first-call costs outside the trace
        tracemalloc.start()
        try:
            run_analytic(setup, device)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, peak

    def test_bad_kind_rejected(self):
        with pytest.raises(ContractError):
            AnalyticDevice("amplifier")
        with pytest.raises(ContractError):
            attenuator_device(1.4)
        for bad in (math.nan, math.inf):
            with pytest.raises(ContractError):
                rescale_mp_device(bad)


class TestSetupConstruction:
    def test_pure_low_gain_example(self):
        setup = build_setup(CvParams(g=1.0, lam=1.0), _cutoff(40))
        assert setup.branch == "pure_low_gain"
        assert abs(math.tanh(setup.theta) - 1.0 / math.sqrt(2.0)) < 1e-12
        assert setup.g_port == 0 and setup.weight == 1.0
        assert setup.stages[0].startswith("tmsv") and "device" in setup.stages

    def test_pure_high_gain_example(self):
        setup = build_setup(CvParams(g=2.0, lam=1.0), _cutoff(40))
        assert setup.branch == "pure_high_gain"
        assert abs(math.tanh(setup.theta) - math.sqrt(2.0) / 2.0) < 1e-12
        # the observable mirrors onto the reference port, with the
        # change-of-variables weight (lam+1)/g²
        assert setup.g_port == 1
        assert abs(setup.weight - 0.5) < 1e-12

    def test_conjugation_example(self):
        setup = build_setup(CvParams(g=1.0, lam=1.0, mu=2.0, conjugate=True), _cutoff(40))
        assert setup.branch == "conjugation"
        assert abs(setup.x - 0.6) < 1e-12
        k = setup.params.k
        assert abs(k - 2.0 * math.sqrt(0.6) / 3.0) < 1e-12
        assert abs(setup.weight - 1.0 / (k * k + 1.0)) < 1e-12

    def test_mixed_branch_parameters(self):
        p = CvParams(g=1.0, lam=1.0, mu=2.0)
        assert abs(p.x - 0.6) < 1e-12
        assert abs(p.nu - 3.0) < 1e-12
        setup = build_setup(p, _cutoff(40))
        assert setup.branch == "mixed"
        assert any(s.startswith("noise") for s in setup.stages)
        # a gain whose square underflows adds no noise, like g = 0
        assert CvParams(g=5e-324, mu=1.0).nu == math.inf

    def test_mu_limit_recovers_pure(self):
        p_big = CvParams(g=1.0, lam=1.0, mu=1e9)
        p_pure = CvParams(g=1.0, lam=1.0)
        assert abs(p_big.x - p_pure.x) < 1e-8
        assert abs(p_big.k - p_pure.k) < 1e-8

    def test_boundary_gain_has_no_angle(self):
        # c = g·k = 1 has no finite squeezer angle; the score reads W_1 all the same
        params = CvParams(g=2.0, lam=3.0)
        cut = _cutoff(40)
        setup = build_setup(params, cut)
        assert setup.theta is None and setup.g_port is None and setup.weight == 1.0
        for dev in (identity_device(), attenuator_device(0.8)):
            score, _ = run_setup(setup, dev.materialize(cut))
            assert abs(score - average_fidelity_oracle(dev, params, cut).value) < 1e-6, dev.kind

    def test_json_round_trip_fields(self):
        setup = build_setup(CvParams(g=1.0, lam=1.0, mu=2.0), _cutoff(40))
        doc = setup_to_json(setup)
        assert doc["branch"] == "mixed" and doc["mu"] == 2.0
        assert doc["n_max"] == 40 and isinstance(doc["stages"], list)
        pure_doc = setup_to_json(build_setup(CvParams(), _cutoff(40)))
        assert pure_doc["mu"] is None

    def test_invalid_params(self):
        with pytest.raises(ContractError):
            CvParams(g=-1.0)
        with pytest.raises(ContractError):
            CvParams(lam=0.0)
        with pytest.raises(ContractError):
            CvParams(mu=-2.0)
        for bad in ({"g": math.nan}, {"g": math.inf}, {"lam": math.nan}, {"mu": math.nan}):
            with pytest.raises(ContractError):
                CvParams(**bad)
        with pytest.raises(ContractError):
            FockCutoff(1)


def _gauss_hermite_oracle(device: Channel, params: CvParams, nodes: int) -> float:
    """Pure-input average fidelity of a Kraus device by Gauss–Hermite
    quadrature over the prior, on the same unnormalized truncated coherent
    rows the Fock series expands: Σ w Σ_k |⟨target|K_k|α⟩|² / Σ w Σ_k ‖K_k|α⟩‖²."""
    x, w = hermgauss(nodes)
    alphas = (x[:, None] + 1j * x[None, :]).reshape(-1) / math.sqrt(params.lam)
    weights = (w[:, None] * w[None, :]).reshape(-1)
    rows = _coherent_amplitudes(alphas, device.dims_in)
    targets = params.g * (alphas.conj() if params.conjugate else alphas)
    bras = _coherent_amplitudes(targets.conj(), device.dims_out)
    num = den = 0.0
    for k in device.kraus:
        out = rows @ k.T
        num = num + np.abs(np.sum(bras * out, axis=1)) ** 2
        den = den + np.sum(np.abs(out) ** 2, axis=1)
    return float(weights @ num / (weights @ den))


def _truncation_budget(device: Channel, params: CvParams, n: int) -> float:
    """Ten times the tails the cutoff drops: the input prior's and the
    target's mass past n (rates 1/(1+λ′) and g′²/(λ′+g′²) at the posterior
    λ′, g′ of :func:`cv._fock_series`) and the device's spill on the prior,
    plus rounding."""
    shrink = params.mu / (params.lam + params.mu) if math.isfinite(params.mu) else 1.0
    lam, g = params.lam * shrink, params.g * shrink
    prior = lam / (1.0 + lam) ** np.arange(1, n + 1)
    mass = np.einsum("kxu,kxu->u", device.kraus, device.kraus)
    spill = 1.0 - float(prior @ mass) / float(prior.sum())
    return 10.0 * ((1.0 + lam) ** -n + (g * g / (lam + g * g)) ** n + spill) + 1e-12


@pytest.mark.parametrize(
    "params",
    [
        CvParams(g=0.8, lam=1.0),  # pure_low_gain
        CvParams(g=2.0, lam=1.0),  # pure_high_gain
        CvParams(g=1.0, lam=4.0, mu=4.0),  # mixed
        CvParams(g=1.2, lam=1.0, conjugate=True),  # conjugation
    ],
    ids=["pure_low_gain", "pure_high_gain", "mixed", "conjugation"],
)
@pytest.mark.parametrize(
    "dev",
    [identity_device(), vacuum_device(), attenuator_device(0.8), rescale_mp_device(0.6),
     rescale_mp_device(1.0)],
    ids=["identity", "vacuum", "attenuator", "scale", "heterodyne-mp"],
)
def test_series_of_each_builtin_meets_its_closed_form(dev, params):
    cut = _cutoff(30, 1e-3)
    kraus = dev.materialize(cut)
    got = average_fidelity_oracle(kraus, params, cut)
    assert got.method == "fock_series"
    budget = _truncation_budget(kraus, params, 30)
    assert abs(got.value - dev.average_fidelity(params)) <= budget, budget


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 12),
    kraus_count=st.integers(1, 4),
    complex_family=st.booleans(),
    g=st.floats(0.0, 2.0),
    lam=st.floats(0.3, 6.0),
    mu=st.one_of(st.just(math.inf), st.floats(1.0, 8.0)),
    conjugate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_series_equals_the_run_on_any_kraus_family(
    n, kraus_count, complex_family, g, lam, mu, conjugate, seed
):
    """On every branch the Fock series and run_setup score the same
    truncated device, so they agree to rounding on random families that mix
    charges, pure and at finite μ (or share the noise guard's refusal)."""
    rng = np.random.default_rng(seed)
    ks = rng.normal(size=(kraus_count, n, n))
    if complex_family:
        ks = ks + 1j * rng.normal(size=(kraus_count, n, n))
    ks /= math.sqrt(np.max(np.linalg.eigvalsh(np.einsum("kxa,kxb->ab", ks.conj(), ks))))
    device = Channel(ks, trace_preserving=False)
    params = CvParams(g=g, lam=lam, mu=mu, conjugate=conjugate)
    cut = FockCutoff(n, leak_tol=0.99)  # an algebraic identity: any truncation
    try:
        score, _ = run_setup(build_setup(params, cut), device)
    except CutoffError:
        with pytest.raises(CutoffError):
            average_fidelity_oracle(device, params, cut)
        return
    series = average_fidelity_oracle(device, params, cut).value
    assert abs(series - score) <= 1e-12, (series, score)


class TestRunAgainstOracle:
    def test_pure_branch_standard_devices(self):
        cut = _cutoff(40)
        params = CvParams(g=1.0, lam=1.0)
        setup = build_setup(params, cut)
        expected = {
            "identity": 1.0,
            "attenuator": 1.0 / (1.0 + (1.0 - math.sqrt(0.8)) ** 2),
            "vacuum": 0.5,
            "rescale_mp": 0.5,
        }
        for dev in (
            identity_device(),
            attenuator_device(0.8),
            vacuum_device(),
            rescale_mp_device(1.0),
        ):
            score, p_succ = run_setup(setup, dev.materialize(cut))
            oracle = average_fidelity_oracle(dev, params, cut).value
            assert abs(score - oracle) < 1e-4, dev.kind
            assert abs(oracle - expected[dev.kind]) < 1e-9, dev.kind
            assert p_succ > 0.99

    def test_pair_route_at_high_cutoff(self):
        params = CvParams(g=1.3, lam=1.0)
        cut = FockCutoff(80)
        setup = build_setup(params, cut)
        assert setup.stages[-1] == "pair_observable(c=0.919239)"
        # a setup built by hand reads the same observable
        direct = CvSetup(
            params=params, cutoff=cut, branch=setup.branch, x=setup.x,
            weight=setup.weight, theta=setup.theta, g_port=setup.g_port,
        )
        for dev in (identity_device(), attenuator_device(0.8)):
            score, _ = run_setup(setup, dev.materialize(cut))
            assert run_setup(direct, dev.materialize(cut))[0] == score
            oracle = average_fidelity_oracle(dev, params, cut).value
            assert abs(score - oracle) < 1e-9, dev.kind

    @pytest.mark.parametrize("mu", [math.inf, 2.0])
    def test_zero_gain_scores_vacuum_target(self, mu):
        # g = 0 targets the vacuum; the identity device then scores
        # E[e^{-|α|²}] over the noisy prior, λμ/(λμ + λ + μ)
        params = CvParams(g=0.0, lam=1.0, mu=mu)
        setup = build_setup(params, _cutoff(40, 1e-6))
        assert setup.stages[-1] == "pair_observable(c=0.000000)"
        score, _ = run_setup(setup, Channel.identity(40))
        want = 0.5 if math.isinf(mu) else 2.0 / 5.0
        assert abs(score - want) < 1e-9

    @pytest.mark.parametrize(
        "q, g, lam, mu, n_max",
        [(1.14997, 0.72624, 1.00773, math.inf, 30), (1.2, 1.0, 1.0, math.inf, 30),
         (1.18, 1.1, 6.0, 6.0, 20)],
    )
    def test_trace_preserving_device_is_scored_unconditioned(self, q, g, lam, mu, n_max):
        # the amplifier spills 6e-5 to 2e-4 past these cutoffs; divided by
        # p_succ the score was 2.6e-5 to 6.9e-5 above the closed form
        dev = rescale_mp_device(q)
        params = CvParams(g=g, lam=lam, mu=mu)
        setup = build_setup(params, FockCutoff(n_max, 1e-3))
        score, p_succ = run_analytic(setup, dev)
        assert 1.0 - p_succ > 5e-5
        assert abs(score - dev.average_fidelity(params)) <= 2e-9

    def test_subnormalized_device_same_score(self):
        cut = _cutoff(40)
        setup = build_setup(CvParams(g=1.0, lam=1.0), cut)
        half = Channel(
            [math.sqrt(0.5) * np.eye(40, dtype=complex)], trace_preserving=False
        )
        score, p_succ = run_setup(setup, half)
        assert abs(p_succ - 0.5) < 1e-9
        assert abs(score - 1.0) < 1e-6

    def test_channel_oracle_agrees_with_analytic(self):
        # the Kraus series (n_max loss operators) against the closed form:
        # pure, noisy and conjugate targets
        dev = attenuator_device(0.8)
        for params, n_max in [
            (CvParams(g=1.0, lam=1.0), 40),
            (CvParams(g=1.0, lam=4.0, mu=4.0), 20),
            (CvParams(g=1.2, lam=1.0, conjugate=True), 40),
        ]:
            cut = _cutoff(n_max)
            a = average_fidelity_oracle(dev, params, cut).value
            b = average_fidelity_oracle(dev.materialize(cut), params, cut).value
            assert abs(a - b) < 1e-8, params

    @pytest.mark.parametrize("dev", [identity_device(), attenuator_device(0.8)])
    def test_conjugation_quadrature_meets_the_closed_form(self, dev):
        # the narrow conjugation kernel: the series against the closed form,
        # and against a Gauss–Hermite average of the same truncated device
        params = CvParams(g=1.2, lam=1.0, conjugate=True)
        cut = _cutoff(40)
        kraus = dev.materialize(cut)
        got = average_fidelity_oracle(kraus, params, cut)
        assert got.method == "fock_series"
        assert abs(got.value - dev.average_fidelity(params)) <= 1e-10
        assert abs(got.value - _gauss_hermite_oracle(kraus, params, 96)) <= 1e-12

    def test_oracle_record(self):
        params = CvParams(g=1.0, lam=1.0)
        cut = _cutoff(30)
        exact = average_fidelity_oracle(identity_device(), params, cut)
        assert exact == cv.OracleResult(identity_device().average_fidelity(params), "closed_form")
        # the identity at g = 1 keeps every coherent input: the series falls
        # short of 1 only by the prior mass the cutoff drops
        series = average_fidelity_oracle(Channel.identity(30), params, cut)
        assert series.method == "fock_series" and 0.0 < 1.0 - series.value <= 1e-8

    def test_oracle_past_the_byte_cap_is_refused_before_allocating(self):
        # the series' n_max³ arrays at n_max 1100 would take ~50 GiB
        device, cut = Channel.identity(1100), _cutoff(1100)
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError, match="cap"):
                average_fidelity_oracle(device, CvParams(mu=2.0), cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_heterodyne_export_at_finite_mu_is_referenced_fast(self):
        # 900 Kraus operators at μ = 6: the quadrature this replaced took 37 s
        dev = rescale_mp_device(1.0)
        params = CvParams(g=1.0, lam=1.0, mu=6.0)
        cut = _cutoff(30, 1e-3)
        kraus = dev.materialize(cut)
        t0 = time.perf_counter()
        got = average_fidelity_oracle(kraus, params, cut).value
        assert time.perf_counter() - t0 < 2.0
        assert abs(got - dev.average_fidelity(params)) <= 1e-5
        assert abs(got - run_setup(build_setup(params, cut), kraus)[0]) <= 1e-14

    def test_mixed_identity_closed_form(self):
        cut = FockCutoff(40, leak_tol=1e-6)
        params = CvParams(g=1.0, lam=1.0, mu=2.0)
        setup = build_setup(params, cut)
        score, _ = run_setup(setup, Channel.identity(40))
        assert abs(score - 2.0 / 3.0) < 1e-6  # mu/(1+mu), independent of lam

    def test_mixed_equivalence_on_lossy_device(self):
        cut = FockCutoff(28, leak_tol=1e-6)
        params = CvParams(g=1.0, lam=1.0, mu=2.0)
        setup = build_setup(params, cut)
        dev = attenuator_device(0.8)
        score, _ = run_setup(setup, dev.materialize(cut))
        oracle = average_fidelity_oracle(dev, params, cut).value
        assert abs(score - oracle) < 1e-4

    def test_mixed_high_c_branch(self):
        # g k > 1 exercises the mirrored observable with its 1/c² weight
        params = CvParams(g=1.6, lam=0.5, mu=2.0)
        assert params.g * params.k > 1.0
        cut = FockCutoff(48, leak_tol=1e-6)
        setup = build_setup(params, cut)
        assert setup.g_port == 1 and setup.weight < 1.0
        score, _ = run_setup(setup, Channel.identity(48))
        oracle = average_fidelity_oracle(identity_device(), params, cut).value
        assert abs(score - oracle) < 1e-4

    def test_wider_parameter_grid_pure(self):
        # x = 2/3 at lam = 0.5 leaks ~9e-8 past 40 levels, so the default
        # 1e-8 budget would reject a perfectly usable cutoff here
        cut = _cutoff(40, leak_tol=1e-6)
        for g, lam in [(1.2, 1.0), (1.0, 0.5), (1.2, 0.5)]:
            params = CvParams(g=g, lam=lam)
            setup = build_setup(params, cut)
            for dev in (identity_device(), vacuum_device()):
                score, _ = run_setup(setup, dev.materialize(cut))
                oracle = average_fidelity_oracle(dev, params, cut).value
                assert abs(score - oracle) < 1e-4, (g, lam, dev.kind)

    def test_conjugation_pure_identity(self):
        cut = _cutoff(40)
        params = CvParams(g=1.0, lam=1.0, conjugate=True)
        setup = build_setup(params, cut)
        score, _ = run_setup(setup, Channel.identity(40))
        assert abs(score - 1.0 / math.sqrt(5.0)) < 1e-6
        oracle = average_fidelity_oracle(Channel.identity(40), params, cut).value
        assert abs(score - oracle) < 1e-4

    def test_conjugation_mixed_identity(self):
        cut = FockCutoff(40, leak_tol=1e-6)
        params = CvParams(g=1.0, lam=1.0, mu=2.0, conjugate=True)
        setup = build_setup(params, cut)
        score, _ = run_setup(setup, Channel.identity(40))
        want = (2.0 / 3.0) * math.sqrt(3.0 / 11.0)
        assert abs(score - want) < 1e-6
        oracle = average_fidelity_oracle(Channel.identity(40), params, cut).value
        assert abs(score - oracle) < 1e-4

    @pytest.mark.parametrize("lam", [1.0, 1.05, 1.1])
    @pytest.mark.parametrize("c", [0.82, 0.95])
    def test_conjugation_run_meets_the_exact_reference(self, lam, c):
        # a cv-pure conjugation job: identity at n_max 40 and c = g·k in
        # [0.82, 0.95].  The 24-node quadrature was up to 1.5e-4 off here;
        # against the closed form all that is left is the run's truncation
        params = CvParams(g=c * math.sqrt(lam + 1.0), lam=lam, conjugate=True)
        cut = _cutoff(40)
        score, _ = run_setup(build_setup(params, cut), identity_device().materialize(cut))
        assert abs(score - average_fidelity_oracle(identity_device(), params, cut).value) <= 1e-7

    def test_conjugation_score_below_one_for_identity(self):
        params = CvParams(g=1.0, lam=2.0, conjugate=True)
        val = average_fidelity_oracle(identity_device(), params, _cutoff(40)).value
        assert val < 1.0

    def test_noise_adjoint_route_equivalence(self):
        # run_setup scores Tr[O N(ρ)]; the reference moves the adjoint family
        # {K†} onto the state and reads out the dense squeezer, which agrees
        # because the noise is self-adjoint on the kept block
        cut = FockCutoff(30, leak_tol=1e-4)
        params = CvParams(g=1.0, lam=1.0, mu=2.0)
        setup = build_setup(params, cut)
        noise = additive_noise_channel(3.0, cut)
        score_a, _ = run_setup(setup, Channel.identity(30))
        s = two_mode_squeezer(setup.theta, cut).matrix
        gd = np.tanh(setup.theta) ** (2.0 * np.arange(30))
        w = s.conj().T @ np.kron(np.diag(gd), np.eye(30)).astype(complex) @ s
        psi = tmsv(setup.x, cut).amplitudes
        phis = np.stack(
            [(k.conj().T @ psi.reshape(30, 30)).reshape(-1) for k in noise.kraus], axis=1
        )
        score_b = setup.weight * float(
            np.sum(np.einsum("ij,ij->j", phis.conj(), w @ phis)).real
        )
        assert abs(score_a - score_b) < 1e-9

    def test_rescale_family_optimum(self):
        # best measure-and-prepare rescaling: q* = g/(1+lam)
        params = CvParams(g=1.0, lam=1.0)
        cut = _cutoff(40)
        best = (1.0 + params.lam) / (1.0 + params.lam + params.g**2)
        got = average_fidelity_oracle(rescale_mp_device(0.5), params, cut).value
        assert abs(got - best) < 1e-9
        for q in (0.3, 0.7, 1.0):
            assert average_fidelity_oracle(rescale_mp_device(q), params, cut).value <= best + 1e-12

    def test_small_prior_oracle_and_cutoff_failure(self):
        params = CvParams(g=1.0, lam=0.01)
        oracle = average_fidelity_oracle(rescale_mp_device(1.0), params, _cutoff(40)).value
        assert abs(oracle - 0.5) < 1e-9
        with pytest.raises(CutoffError) as exc:
            setup = build_setup(params, _cutoff(40))
            run_setup(setup, rescale_mp_device(1.0).materialize(_cutoff(40)))
        assert exc.value.suggested_n_max > 40

    def test_short_cutoff_is_refused_by_the_run_not_the_series(self):
        # eight levels hold too little of the g = 1, λ = 1 prior: the run's
        # tmsv guard refuses, while the series scores the device as given
        params = CvParams(g=1.0, lam=1.0)
        with pytest.raises(CutoffError):
            run_setup(build_setup(params, _cutoff(8)), Channel.identity(8))
        value = average_fidelity_oracle(Channel.identity(8), params, _cutoff(8)).value
        assert 0.9 < value < 1.0

    def test_vanishing_success(self):
        cut = _cutoff(20, leak_tol=1e-5)
        setup = build_setup(CvParams(g=1.0, lam=1.0), cut)
        feeble = Channel(
            [1e-8 * np.eye(20, dtype=complex)], trace_preserving=False
        )
        with pytest.raises(VanishingSuccessError):
            run_setup(setup, feeble)

    def test_dimension_mismatch(self):
        setup = build_setup(CvParams(g=1.0, lam=1.0), _cutoff(20))
        with pytest.raises(DimensionError):
            run_setup(setup, Channel.identity(19))
        with pytest.raises(DimensionError):
            average_fidelity_oracle(
                Channel.identity(19), CvParams(), _cutoff(20)
            )


# Gauss–Hermite rules for one real quadrature of the prior (α) and of the
# input noise (β); enough nodes that the narrowest kernel drawn below,
# the conjugation branch's (κ + g)²/λ = 18 at identity, g = 2, λ = 0.5, converges
_ALPHA_RULE = hermgauss(256)
_BETA_RULE = hermgauss(32)


def _axis_average(dev: AnalyticDevice, g: float, lam: float, mu: float) -> float:
    """``pure_fidelity`` on one real quadrature — input a + b, target g·a —
    averaged by quadrature over a ~ e^{−λa²} and b ~ e^{−μb²}."""
    x, wx = _ALPHA_RULE
    a = x / math.sqrt(lam)
    if math.isinf(mu):
        b, wb = np.zeros(1), np.full(1, math.sqrt(math.pi))
    else:
        y, wb = _BETA_RULE
        b = y / math.sqrt(mu)
    vals = dev.pure_fidelity(a[:, None] + b[None, :], g * a[:, None]).real
    return float(wx @ vals @ wb) / math.pi


@settings(max_examples=60, deadline=None)
@given(
    eta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    gain=st.one_of(st.just(1.0), st.floats(1.0, 4.0)),
    n_max=st.integers(2, 24),
)
def test_stage_transfers_match_the_combined_kraus_set(eta, gain, n_max):
    """The per-charge arrays built from each stage's amplitude matrix against
    ``_charge_transfer`` of the combined Kraus set {A_k L_j}: n_max² operators
    summed per element, an independent route."""
    got = _gaussian_transfer(eta, gain, n_max)
    want = _charge_transfer(_gaussian_kraus(eta, gain, n_max))
    assert got.shape == want.shape == (n_max, n_max, n_max)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(
    log_gain=st.one_of(st.sampled_from([0.0, 8.0]), st.floats(0.0, 8.0)),
    n_max=st.one_of(st.just(300), st.integers(2, 300)),
)
def test_amplifier_is_the_attenuators_dual(log_gain, n_max):
    """The amplifier's amplitude matrix, read from the attenuator's at 1/G,
    against its own closed form A[n+k, n] = √(C(n+k, k) (1−1/G)^k / G^{n+1})
    for G from 1 to 1e8, on the same ln k! table, relative to its largest
    entry."""
    gain = 10.0**log_gain
    got = _amplifier_amplitudes(gain, n_max)
    assert got.flags.c_contiguous
    logs = _log_factorials(n_max)
    top, n = np.tril_indices(n_max)  # top = n + k
    k = top - n
    log_a = logs[top] - logs[n] - logs[k]
    log_a += xlogy(k, 1.0 - 1.0 / gain) - (n + 1) * math.log(gain)
    want = np.zeros((n_max, n_max))
    want[top, n] = np.exp(0.5 * log_a)
    assert np.all(got[np.triu_indices(n_max, 1)] == 0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(AnalyticDevice._KINDS),
    param=st.floats(0.0, 1.0),
    g=st.floats(0.0, 2.0),
    lam=st.floats(0.5, 8.0),
    mu=st.one_of(st.just(math.inf), st.floats(1.0, 8.0)),
    conjugate=st.booleans(),
)
def test_closed_form_matches_quadrature_of_the_kernel(kind, param, g, lam, mu, conjugate):
    """The closed-form average fidelity against the Gaussian average of its
    kernel.  The kernel e^{−|κu − v|²/G}/G is G times the product of its two
    real quadratures, on which the prior, the input noise and the target all
    act separately; the conjugate target flips the sign of g on the second."""
    # attenuator transmissivity in [0, 1], re-preparation gain in [0, 2]
    dev = AnalyticDevice(kind, {"attenuator": param, "rescale_mp": 2.0 * param}.get(kind, 1.0))
    params = CvParams(g=g, lam=lam, mu=mu, conjugate=conjugate)
    second = _axis_average(dev, -g if conjugate else g, lam, mu)
    ref = dev.eta_gain[1] * _axis_average(dev, g, lam, mu) * second
    assert abs(average_fidelity_oracle(dev, params, _cutoff(20)).value - ref) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(AnalyticDevice._KINDS),
    param=st.floats(0.0, 1.0),
    g=st.floats(0.0, 2.0),
    lam=st.floats(0.5, 8.0),
    mu=st.one_of(st.just(math.inf), st.floats(1.0, 8.0)),
    conjugate=st.booleans(),
    n_max=st.integers(8, 30),
)
def test_charge_blocks_match_the_kraus_export(kind, param, g, lam, mu, conjugate, n_max):
    """run_analytic, read from the device's closed-form charge blocks, against
    run_setup on its materialized Kraus channel: the same score and p_succ,
    or the same refusal.  A gain > 1 export spills past the cutoff and is
    flagged not trace preserving, so run_setup scores it conditioned on
    success, and its score · p_succ is the built-in device's score."""
    # attenuator transmissivity in [0, 1], re-preparation gain in [0, 1.5]
    dev = AnalyticDevice(kind, {"attenuator": param, "rescale_mp": 1.5 * param}.get(kind, 1.0))
    cut = FockCutoff(n_max, leak_tol=1e-3)
    setup = build_setup(CvParams(g=g, lam=lam, mu=mu, conjugate=conjugate), cut)
    export = dev.materialize(cut)
    assert export.trace_preserving == (dev.eta_gain[1] == 1.0)
    results = []
    for run in (lambda: run_analytic(setup, dev), lambda: run_setup(setup, export)):
        try:
            results.append(run())
        except ToolkitError as err:
            results.append(type(err))
    blocks, kraus = results
    if isinstance(blocks, type) or isinstance(kraus, type):
        assert blocks is kraus
        return
    if not export.trace_preserving:
        kraus = (kraus[0] * kraus[1], kraus[1])
    for a, b in zip(blocks, kraus):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (a, b)
