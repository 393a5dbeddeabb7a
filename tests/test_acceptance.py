"""End-to-end gate over the toolkit's headline guarantees.

Every test prints one ``[PASS]/[FAIL]`` line carrying the measured value,
the tolerance it must meet, and the runtime; conftest repeats the lines
after the run.  Each check also enforces its runtime budget.
"""

from __future__ import annotations

import json
import math
import time
from itertools import product

import numpy as np
from numpy.polynomial.laguerre import laggauss

from qbench.canonical import (
    canonical_det_test,
    canonical_prob_test,
    score_recipe,
)
from qbench.canonical import tests_equivalent_prob as equivalent_prob
from qbench.cli import main
from qbench.cv import (
    CvParams,
    FockCutoff,
    additive_noise_channel,
    attenuator_device,
    average_fidelity_oracle,
    beamsplitter,
    build_setup,
    heterodyne_weight,
    identity_device,
    rescale_mp_device,
    run_setup,
    scaled_pair_observable,
    tmsv,
    two_mode_squeezer,
    vacuum_device,
)
from qbench.engine import (
    PnrConfig,
    det_benchmark,
    ppt_offset,
    prob_benchmark,
    product_numerical_range,
)
from qbench.linalg import Operator
from qbench.model import (
    Channel,
    DetTest,
    ProbTest,
    fidelity_test,
    performance_operator,
    score_det_direct,
    score_prob,
)
from qbench.presets import (
    chsh_test,
    equator_ensemble,
    equator_test,
    heisenberg_weyl_rep,
    pauli_rep,
    teleport_test,
    tilde_pauli_rep,
)
from util import (
    ACCEPTANCE_LINES,
    rand_channel,
    rand_density,
    rand_hermitian,
    record_acceptance,
)

CFG = PnrConfig(restarts=16)


def _finish(ok: bool, label: str, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        ok = False
        detail += f", over {budget:.0f}s budget"
    record_acceptance(ok, label, detail, elapsed)
    print(ACCEPTANCE_LINES[-1])
    assert ok, f"{label}: {detail}"


def _cli_json(capsys, *argv: str) -> dict:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"exit code {code}"
    return json.loads(out)


def test_teleport_thresholds_and_bracket(capsys):
    t0 = time.perf_counter()
    rep2 = _cli_json(capsys, "benchmark", "--builtin", "teleport")
    err2 = abs(rep2["value"] - 2.0 / 3.0)
    bracket = rep2["lower"] - 1e-9 <= 2.0 / 3.0 <= rep2["upper"] + 1e-9
    rep3 = _cli_json(capsys, "benchmark", "--builtin", "teleport:3")
    err3 = abs(rep3["value"] - 0.5)
    ok = err2 <= 1e-6 and bracket and rep2["method"] == "spectral" and err3 <= 1e-4
    _finish(
        ok,
        "01 teleport thresholds",
        f"d=2 err {err2:.1e} <= 1e-6 (spectral bracket holds: {bracket}), "
        f"d=3 err {err3:.1e} <= 1e-4",
        t0,
        10.0,
    )


def test_chsh_threshold(capsys):
    t0 = time.perf_counter()
    rep = _cli_json(capsys, "benchmark", "--builtin", "chsh")
    err = abs(rep["value"] - math.sqrt(2.0))
    raw = product_numerical_range(chsh_test().omega, CFG).value
    err_raw = abs(raw - 1.0 / math.sqrt(2.0))
    ok = err <= 1e-6 and err_raw <= 1e-6
    _finish(
        ok,
        "02 chsh threshold",
        f"threshold err {err:.1e}, product-range err {err_raw:.1e}, both <= 1e-6",
        t0,
        5.0,
    )


def test_phase_ensemble_threshold_and_equivalence(capsys):
    t0 = time.perf_counter()
    rep = _cli_json(capsys, "benchmark", "--builtin", "equator")
    err_thr = abs(rep["value"] - 0.75)
    raw = product_numerical_range(equator_test(3).omega, CFG).value
    err_raw = abs(raw - 0.375)
    equiv = equivalent_prob(equator_test(3), fidelity_test(equator_ensemble(7)))
    ok = err_thr <= 1e-6 and err_raw <= 1e-6 and equiv
    _finish(
        ok,
        "03 phase-ensemble threshold",
        f"threshold err {err_thr:.1e}, product-range err {err_raw:.1e} <= 1e-6, "
        f"3- and 7-state tests equivalent at 1e-9: {equiv}",
        t0,
        5.0,
    )


def test_deterministic_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    dims = (list(product((2, 3), repeat=3)) * 3)[:20]
    worst_resid = 0.0
    worst_dev = 0.0
    for i, (d_a, d_r, d_out) in enumerate(dims):
        sigma = Operator(rand_density(d_a * d_r, rng).matrix, (d_a, d_r))
        obs = Operator(rand_hermitian(d_out * d_r, rng), (d_out, d_r))
        det = DetTest(sigma, obs)
        omega = performance_operator(det)
        recipe = canonical_det_test(omega)
        back = performance_operator(recipe.as_det_test())
        shift = recipe.offset * np.eye(back.matrix.shape[0])
        resid = float(np.linalg.norm(back.matrix - shift - omega.matrix))
        worst_resid = max(worst_resid, resid)
        if i < 10:
            ch = rand_channel(d_a, d_out, 2, rng)
            direct = score_det_direct(det, ch)
            via, _ = score_recipe(recipe, ch)
            worst_dev = max(worst_dev, abs(direct - (via - recipe.offset)))
    ok = worst_resid <= 1e-9 and worst_dev <= 1e-10
    _finish(
        ok,
        "04 deterministic round trips",
        f"max reconstruction residual {worst_resid:.1e} <= 1e-9 over 20 tests, "
        f"max score deviation {worst_dev:.1e} <= 1e-10 over 10 channels",
        t0,
        30.0,
    )


def test_probabilistic_score_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4170)
    dims = (list(product((2, 3), repeat=2)) * 3)[:10]
    worst = 0.0
    for d_out, d_in in dims:
        omega = Operator(rand_hermitian(d_out * d_in, rng), (d_out, d_in))
        t = ProbTest(omega, rand_density(d_in, rng))
        recipe = canonical_prob_test(t)
        ch = rand_channel(d_in, d_out, 2, rng, weight=0.8)
        s0, p0 = score_prob(t, ch)
        s1, p1 = score_recipe(recipe, ch)
        worst = max(worst, abs(s0 - s1), abs(p0 - p1))
    ok = worst <= 1e-9
    _finish(
        ok,
        "05 probabilistic equivalence",
        f"max (score, p_succ) deviation {worst:.1e} <= 1e-9 over 10 lossy channels",
        t0,
        30.0,
    )


def test_optical_runs_match_oracle():
    t0 = time.perf_counter()
    params = CvParams(g=1.0, lam=1.0)
    cut = FockCutoff(40)
    setup = build_setup(params, cut)
    worst = 0.0
    cells = []
    for name, dev in (
        ("identity", identity_device()),
        ("attenuator 0.8", attenuator_device(0.8)),
        ("vacuum", vacuum_device()),
        ("heterodyne-mp", rescale_mp_device(1.0)),
    ):
        score, _ = run_setup(setup, dev.materialize(cut))
        oracle = average_fidelity_oracle(dev, params, cut).value
        diff = abs(score - oracle)
        worst = max(worst, diff)
        cells.append(f"{name} {diff:.1e}")
    ok = worst <= 1e-4
    _finish(
        ok,
        "06 optical runs vs oracle",
        "|run - oracle| <= 1e-4 each: " + ", ".join(cells),
        t0,
        120.0,
    )


def test_heterodyne_small_prior_limit(capsys):
    t0 = time.perf_counter()
    rep = _cli_json(capsys, "cv", "--device", "heterodyne-mp", "--lambda", "0.01")
    err = abs(rep["value"] - 0.5)
    ok = err <= 2e-3 and rep["method"] == "oracle" and rep["certified"]
    _finish(
        ok,
        "07 small-prior heterodyne limit",
        f"|value - 0.5| = {err:.1e} <= 2e-3 via {rep['method']} route",
        t0,
        60.0,
    )


def test_noise_adjoint_identity():
    t0 = time.perf_counter()
    params = CvParams(g=1.0, lam=1.0, mu=2.0)
    n = 40
    cut = FockCutoff(n)
    setup = build_setup(params, cut)
    noise = additive_noise_channel(params.nu, cut)
    score_state, _ = run_setup(setup, Channel.identity(n))
    # same pairing with every noise Kraus operator moved onto the observable side
    s = two_mode_squeezer(setup.theta, cut).matrix
    gd = np.diag(np.tanh(setup.theta) ** (2.0 * np.arange(n))).astype(complex)
    eye = np.eye(n, dtype=complex)
    pair = np.kron(gd, eye) if setup.g_port == 0 else np.kron(eye, gd)
    w = s.conj().T @ pair @ s
    psi = tmsv(setup.x, cut).amplitudes.reshape(n, n)
    phis = np.stack([(k.conj().T @ psi).reshape(-1) for k in noise.kraus], axis=1)
    p_succ = float(np.sum(np.abs(psi) ** 2))
    score_obs = setup.weight * float(
        np.sum(np.einsum("ij,ij->j", phis.conj(), w @ phis)).real
    ) / p_succ
    diff = abs(score_state - score_obs)
    ok = diff <= 1e-6
    _finish(
        ok,
        "08 noise-adjoint identity",
        f"|state-side - observable-side| = {diff:.1e} <= 1e-6 "
        f"(g=1, lam=1, mu=2, n_max={n})",
        t0,
        60.0,
    )


def test_conjugation_reduction_and_identity_score():
    t0 = time.perf_counter()
    params = CvParams(g=1.0, lam=1.0, conjugate=True)
    n = 50
    cut = FockCutoff(n)
    setup = build_setup(params, cut)
    c = params.g * params.k
    v = scaled_pair_observable(c, cut, conjugate_reference=False).matrix
    u = beamsplitter(setup.bs_t, cut).matrix
    lhs = u @ v @ u.conj().T
    proj = np.zeros((n, n))
    proj[0, 0] = 1.0
    rhs = np.kron(np.eye(n), proj) / (c * c + 1.0)
    blk = [a * n + b for a in range(21) for b in range(21)]
    resid = float(np.linalg.norm(lhs[np.ix_(blk, blk)] - rhs[np.ix_(blk, blk)]))
    cut40 = FockCutoff(40)
    setup40 = build_setup(params, cut40)
    score, _ = run_setup(setup40, Channel.identity(40))
    oracle = average_fidelity_oracle(Channel.identity(40), params, cut40)
    diff = abs(score - oracle.value)
    ok = resid <= 1e-5 and diff <= 1e-6 and oracle.method == "fock_series"
    _finish(
        ok,
        "09 conjugation reduction",
        f"beamsplitter reduction residual {resid:.1e} <= 1e-5 on levels <= 20, "
        f"identity-device |run - oracle| = {diff:.1e} <= 1e-6 ({oracle.method})",
        t0,
        60.0,
    )


def test_heterodyne_weight_moments():
    t0 = time.perf_counter()
    u, w = laggauss(60)
    worst = 0.0
    for theta in (0.4, 0.88):
        scale = 1.0 + 1.0 / math.sinh(theta) ** 2
        v = u / scale
        # e^{u-v} cancels the weight's Gaussian against the Laguerre factor,
        # keeping every node finite
        weights = w * heterodyne_weight(np.sqrt(v), theta) * np.exp(u - v) / scale
        for m in range(11):
            got = float(np.sum(weights * v**m)) / math.factorial(m)
            worst = max(worst, abs(got - math.tanh(theta) ** (2 * m)))
    ok = worst <= 1e-6
    _finish(
        ok,
        "10 heterodyne weight moments",
        f"max |moment - tanh^2n(theta)| = {worst:.1e} <= 1e-6 "
        f"for n <= 10, theta in {{0.4, 0.88}}",
        t0,
        10.0,
    )


def test_optimal_strategy_attains_threshold():
    t0 = time.perf_counter()
    pairs = (
        ("teleport", teleport_test(2), heisenberg_weyl_rep(2)),
        ("chsh", chsh_test(), tilde_pauli_rep()),
        ("equator", equator_test(3), pauli_rep()),
    )
    worst = 0.0
    for _, t, rep in pairs:
        thr = prob_benchmark(t, CFG)
        ch = det_benchmark(t.omega, CFG, rep=rep).strategy
        got, _ = score_prob(t, ch)
        worst = max(worst, abs(got - thr))
    ok = worst <= 1e-6
    _finish(
        ok,
        "11 optimal strategy",
        f"max |covariant-strategy score - threshold| = {worst:.1e} <= 1e-6 "
        f"on teleport/chsh/phase tests",
        t0,
        10.0,
    )


def test_offset_unshift_matches_raw():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    dims = (list(product((2, 3), repeat=3)) * 2)[:10]
    worst = 0.0
    for d_a, d_r, d_out in dims:
        sigma = Operator(rand_density(d_a * d_r, rng).matrix, (d_a, d_r))
        obs = Operator(rand_hermitian(d_out * d_r, rng), (d_out, d_r))
        t = DetTest(sigma, obs)
        shifted, off = ppt_offset(t.observable)
        ch = rand_channel(d_a, d_out, 2, rng)
        dev = abs(score_det_direct(DetTest(sigma, shifted), ch) - off - score_det_direct(t, ch))
        worst = max(worst, dev)
    ok = worst <= 1e-10
    _finish(
        ok,
        "12 offset un-shift",
        f"max |shifted score - offset - raw score| = {worst:.1e} <= 1e-10 "
        f"over 10 channels",
        t0,
        10.0,
    )
