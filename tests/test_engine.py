"""Product numerical range, benchmarks, and covariant machinery."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from qbench import engine
from qbench.engine import (
    BenchmarkReport,
    GroupRep,
    PnrConfig,
    check_covariance,
    check_ppt,
    det_benchmark,
    pnr_grid_oracle,
    ppt_offset,
    prob_benchmark,
    product_numerical_range,
    twirl_channel,
)
from qbench.errors import (
    ContractError,
    CutoffError,
    DimensionError,
    SearchError,
    SupportError,
)
from qbench.linalg import Operator
from qbench.model import (
    Channel,
    DetTest,
    ProbTest,
    jamiolkowski,
    performance_operator,
    score_det_direct,
    score_det_jam,
    score_prob,
)
from qbench.presets import (
    chsh_test,
    clifford_rep,
    equator_test,
    heisenberg_weyl_rep,
    pauli_rep,
    swap_operator,
    teleport_test,
    tilde_pauli_rep,
)

from util import coherent_ring_omega, rand_channel, rand_density, rand_hermitian

RNG = np.random.default_rng(424242)
FAST = PnrConfig(restarts=16)
# (test, representation it is covariant under, closed-form threshold)
COVARIANT_CASES = (
    (teleport_test(2), heisenberg_weyl_rep(2), 2.0 / 3.0),
    (teleport_test(3), heisenberg_weyl_rep(3), 0.5),
    (chsh_test(), tilde_pauli_rep(), np.sqrt(2.0)),
    (equator_test(3), pauli_rep(), 0.75),
)


def rand_bipartite_hermitian(d1: int, d2: int, rng) -> Operator:
    return Operator(rand_hermitian(d1 * d2, rng), (d1, d2))


def grid_reference(m4: np.ndarray, mesh: float) -> tuple[float, int]:
    """The grid oracle's lower end point by point: the (θ, φ) states
    (cos θ/2, e^{iφ} sin θ/2) of the smaller factor as complex vectors (the
    one state on C^1), each conditioned block solved by ``eigvalsh``;
    returns the best top eigenvalue and the state count."""
    if m4.shape[1] > m4.shape[0]:
        m4 = m4.transpose(1, 0, 3, 2)
    states = np.ones((1, 1))
    if m4.shape[1] == 2:
        tt, pp = np.meshgrid(np.arange(0.0, np.pi + mesh, mesh), np.arange(0.0, 2 * np.pi, mesh),
                             indexing="ij")
        states = np.stack([np.cos(tt / 2).ravel(), (np.exp(1j * pp) * np.sin(tt / 2)).ravel()], 1)
    blocks = np.einsum("nr,xrys,ns->nxy", states.conj(), m4, states)
    return float(np.linalg.eigvalsh(blocks)[:, -1].max()), len(states)


def rand_separable(
    d_out: int, d_in: int, rng, terms: int = 3, in_rank: int | None = None
) -> Operator:
    m = sum(
        np.kron(rand_density(d_out, rng).matrix, rand_density(d_in, rng, in_rank).matrix)
        for _ in range(terms)
    )
    return Operator(m / terms, (d_out, d_in))


def workload_det_omega() -> Operator:
    """The fixed (2, 2) det input of the ``thresholds`` benchmark workload:
    three product terms of Gram matrices drawn from generator seed 2."""
    rng = np.random.default_rng(2)

    def gram(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return g @ g.conj().T

    m = sum(np.kron(gram(2), gram(2)) for _ in range(3))
    return Operator(m / np.trace(m).real, (2, 2))


def seesaw_reference(m4, b0, tol, max_iter, scale):
    """One start at a time: the loop the batched seesaw replaced, stopping on
    a sweep that gains no more than ``tol * scale``."""
    b = b0 / np.linalg.norm(b0)
    best = -np.inf
    for _ in range(max_iter):
        ha = np.einsum("xrys,r,s->xy", m4, b.conj(), b)
        a = np.linalg.eigh(0.5 * (ha + ha.conj().T))[1][:, -1]
        hb = np.einsum("xrys,x,y->rs", m4, a.conj(), a)
        w, v = np.linalg.eigh(0.5 * (hb + hb.conj().T))
        val, b = w[-1], v[:, -1]
        if val <= best + tol * scale:
            return max(best, val)
        best = val
    return best


class TestProductNumericalRange:
    def test_product_operator_factorizes(self):
        # pnr(A ⊗ B) = lam_max(A) * lam_max(B) for PSD factors
        for _ in range(5):
            a = rand_density(2, RNG).matrix * 2.0
            b = rand_density(3, RNG).matrix * 1.5
            m = Operator(np.kron(a, b), (2, 3))
            res = product_numerical_range(m, FAST)
            expect = np.linalg.eigvalsh(a)[-1] * np.linalg.eigvalsh(b)[-1]
            assert abs(res.value - expect) < 1e-10

    def test_teleport_values(self):
        # normalised symmetric projector: best product overlap 2/(d(d+1))
        for d in (2, 3):
            res = product_numerical_range(teleport_test(d).omega, FAST)
            assert abs(res.value - 2.0 / (d * (d + 1))) < 1e-9

    def test_chsh_value(self):
        res = product_numerical_range(chsh_test().omega, FAST)
        assert abs(res.value - 1.0 / np.sqrt(2.0)) < 1e-9

    def test_equator_value(self):
        res = product_numerical_range(equator_test(3).omega, FAST)
        assert abs(res.value - 0.375) < 1e-9

    def test_bracket_and_maximizers(self):
        for _ in range(10):
            m = rand_bipartite_hermitian(2, 2, RNG)
            res = product_numerical_range(m, FAST)
            assert res.value <= res.upper + 1e-12
            m4 = m.matrix.reshape(2, 2, 2, 2)
            at = np.einsum(
                "xrys,x,r,y,s->",
                m4,
                res.maximizer_a.conj(),
                res.maximizer_b.conj(),
                res.maximizer_a,
                res.maximizer_b,
            )
            assert abs(at.real - res.value) < 1e-9
            assert abs(np.linalg.norm(res.maximizer_a) - 1.0) < 1e-12
            assert abs(np.linalg.norm(res.maximizer_b) - 1.0) < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e8, 1e10])
    @pytest.mark.parametrize("kind", ["swap", "random"])
    def test_value_is_the_objective_at_the_maximizers(self, kind, scale):
        # s·(SWAP - I) peaks at 0 on a = b, where a value compared against
        # the seesaw's eigenvalues with an absolute tolerance cannot hold
        if kind == "swap":
            m = Operator(scale * (swap_operator(3) - np.eye(9)), (3, 3))
        else:
            m = Operator(scale * rand_hermitian(6, np.random.default_rng(8)), (2, 3))
        res = product_numerical_range(m, FAST)
        a, b = res.maximizer_a, res.maximizer_b
        m4 = m.matrix.reshape(m.dims * 2)
        at = np.einsum("xrys,x,r,y,s->", m4, a.conj(), b.conj(), a, b).real
        assert abs(res.value - at) <= 1e-15 * np.linalg.norm(m.matrix, 2)
        if kind == "swap":
            assert abs(res.value) <= 1e-15 * scale

    def test_deterministic_for_fixed_seed(self):
        m = rand_bipartite_hermitian(2, 3, RNG)
        r1 = product_numerical_range(m, PnrConfig(restarts=8, seed=5))
        r2 = product_numerical_range(m, PnrConfig(restarts=8, seed=5))
        assert r1.value == r2.value
        assert np.array_equal(r1.maximizer_a, r2.maximizer_a)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        d_out=st.integers(1, 4),
        d_in=st.integers(1, 4),
        restarts=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_seesaw_matches_per_start_loop(self, d_out, d_in, restarts, seed):
        m = rand_bipartite_hermitian(d_out, d_in, np.random.default_rng(seed))
        m4 = m.matrix.reshape(d_out, d_in, d_out, d_in)
        cfg = PnrConfig(restarts=restarts, seed=seed)
        top = np.linalg.eigh(m.matrix)[1][:, -1].reshape(d_out, d_in)
        starts = engine._starts(top, cfg.restarts, cfg.seed)
        tol, max_iter = engine.SEESAW_TOL, engine.SEESAW_MAX_ITER
        scale = np.abs(np.linalg.eigvalsh(m.matrix)).max()
        vals, _, _, _ = engine._search(m4, starts, scale)
        ref = np.array([seesaw_reference(m4, b0, tol, max_iter, scale) for b0 in starts])
        ref = np.sort(ref)[::-1]
        assert vals.shape == ref.shape
        assert np.all(np.abs(vals - ref) <= 1e-9)
        assert np.all(vals <= np.linalg.eigvalsh(m.matrix)[-1] + 1e-12)
        assert abs(product_numerical_range(m, cfg).value - ref.max()) <= 1e-9

    def test_sweeps_stack_every_start(self, monkeypatch):
        # a per-start seesaw makes two eigh calls per sweep of every start
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        m = rand_bipartite_hermitian(3, 3, np.random.default_rng(5))
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        res = product_numerical_range(m, PnrConfig(restarts=256))
        assert res.restarts == 260
        assert len(calls) < res.restarts

    def test_two_qubit_operators_get_the_grid_bracket(self):
        # the Bell projector: spectral bound 1, product maximum 1/2
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2.0)
        res = product_numerical_range(Operator(np.outer(bell, bell), (2, 2)), PnrConfig())
        assert res.method == "grid"
        assert abs(res.value - 0.5) < 1e-12
        assert res.value <= res.upper < 0.6

    def test_one_eigendecomposition_of_m(self, monkeypatch):
        # the spectral bound and the Schmidt start share one eigh of M
        m = rand_bipartite_hermitian(2, 3, np.random.default_rng(9))
        calls = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            if a.shape == m.matrix.shape and np.allclose(a, m.matrix):
                calls.append(1)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        product_numerical_range(m, PnrConfig())
        assert len(calls) == 1

    @pytest.mark.parametrize("search", ["pnr", "det"])
    def test_start_count_past_the_byte_cap_is_refused(self, search):
        # 10**12 starts used to end in a MemoryError (29.1 TiB); the batch
        # is refused before any start is drawn, in the det rounds too
        cfg = PnrConfig(restarts=10**12)
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError, match="starts needs"):
                if search == "pnr":
                    product_numerical_range(teleport_test(2).omega, cfg)
                else:
                    det_benchmark(workload_det_omega(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    @pytest.mark.parametrize("cfg", [{"restarts": -1}, {"seed": -1}, {"restarts": -3, "seed": -2}])
    def test_negative_start_count_or_seed_is_refused(self, cfg):
        # these used to end in numpy's "negative dimensions" and default_rng
        # ValueErrors; the CLI refuses both at parse time
        with pytest.raises(ContractError, match="non-negative"):
            product_numerical_range(equator_test(3).omega, PnrConfig(**cfg))

    def test_non_hermitian_rejected(self):
        g = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        with pytest.raises(ContractError):
            product_numerical_range(Operator(g + 2j * np.eye(4), (2, 2)))


class TestGridOracle:
    def test_teleport_bracket_contains_closed_form(self):
        br = pnr_grid_oracle(teleport_test(2).omega, mesh=0.05)
        assert br.lower - 1e-9 <= 1.0 / 3.0 <= br.upper
        assert br.upper - br.lower < 0.05

    def test_seesaw_inside_bracket_random(self):
        for _ in range(10):
            m = rand_bipartite_hermitian(2, 2, RNG)
            res = product_numerical_range(m, FAST)
            br = pnr_grid_oracle(m, mesh=0.1)
            assert br.lower - 1e-9 <= res.value <= br.upper + 1e-9

    def test_dimension_guard(self):
        # the closed form takes blocks of at most 2×2, so any factor past a
        # qubit is refused before allocating, (2,3), (3,2) and (2,8) included
        for dims in [(3, 6), (3, 3), (4, 4), (2, 3), (3, 2), (2, 8)]:
            m = Operator(np.eye(dims[0] * dims[1]), dims)
            tracemalloc.start()
            try:
                with pytest.raises(DimensionError):
                    pnr_grid_oracle(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (dims, peak)

    def test_mesh_guard(self):
        # a NaN mesh used to pass `mesh <= 0 or mesh > 0.5` and die in np.arange
        for mesh in (0.0, float("nan")):
            with pytest.raises(ContractError, match="mesh must lie"):
                pnr_grid_oracle(teleport_test(2).omega, mesh=mesh)

    def test_too_fine_grid_is_refused(self):
        # mesh 1e-4 would hold ~2e9 grid points (~200 GiB): refused unbuilt
        tracemalloc.start()
        try:
            with pytest.raises(CutoffError, match="grid of 1973992944 points needs"):
                pnr_grid_oracle(teleport_test(2).omega, mesh=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_no_eigensolver_per_grid_point(self, monkeypatch):
        # each point's top eigenvalue is closed form: the one LAPACK call is
        # the spectral radius of M itself
        omega, shapes = teleport_test(2).omega, []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def recording(a, *args, _solver=solver, **kwargs):
                shapes.append(np.shape(a))
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        pnr_grid_oracle(omega)
        assert shapes == [(4, 4)]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        dims=st.sampled_from([(2, 2), (2, 1), (1, 2), (1, 1)]),
        kind=st.sampled_from(["random", "identity", "out", "in"]),
        exponent=st.integers(-200, 150),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(2, 2), kind="random", exponent=-200, seed=0)
    @example(dims=(2, 2), kind="identity", exponent=150, seed=0)
    @example(dims=(2, 2), kind="out", exponent=-100, seed=1)
    @example(dims=(2, 2), kind="in", exponent=0, seed=2)
    @example(dims=(1, 2), kind="identity", exponent=-100, seed=3)
    @example(dims=(2, 1), kind="out", exponent=100, seed=4)
    def test_closed_form_matches_per_point_eigvalsh(self, dims, kind, exponent, seed):
        # degenerate kinds: M ∝ I and M = A ⊗ I leave the same block at
        # every grid point, M = I ⊗ B a multiple of I; at 1e-200 an unscaled
        # norm's squares underflow
        rng = np.random.default_rng(seed)
        d_out, d_in = dims
        m = {
            "random": lambda: rand_hermitian(d_out * d_in, rng),
            "identity": lambda: rng.normal() * np.eye(d_out * d_in),
            "out": lambda: np.kron(rand_hermitian(d_out, rng), np.eye(d_in)),
            "in": lambda: np.kron(np.eye(d_out), rand_hermitian(d_in, rng)),
        }[kind]() * 10.0**exponent
        op = Operator(m, dims)
        rho = np.abs(np.linalg.eigvalsh(op.matrix)).max()
        br = pnr_grid_oracle(op, mesh=0.05)
        ref, points = grid_reference(m.reshape(d_out, d_in, d_out, d_in), 0.05)
        assert abs(br.lower - ref) <= 1e-13 * rho
        assert br.points == points == (8064 if dims == (2, 2) else 1)
        assert br.cover_radius == (0.5 * 0.05 * (0.5 + 1.0) if dims == (2, 2) else 0.0)
        assert br.upper == br.lower + 2.0 * rho * br.cover_radius

    def test_independent_of_the_seesaw(self, monkeypatch):
        # the grid checks the seesaw, so it must not run it
        def no_seesaw(*args, **kwargs):
            raise AssertionError("the grid ran the seesaw")

        monkeypatch.setattr(engine, "_search", no_seesaw)
        br = pnr_grid_oracle(teleport_test(2).omega)
        assert br.lower - 1e-9 <= 1.0 / 3.0 <= br.upper

    @pytest.mark.parametrize("dims", [(2, 1), (1, 2), (1, 1)])
    def test_one_dimensional_factor_is_exact(self, dims):
        # C^1 holds one state up to phase: covering radius 0
        m = rand_bipartite_hermitian(*dims, np.random.default_rng(4))
        br = pnr_grid_oracle(m)
        top = np.linalg.eigvalsh(m.matrix)[-1]
        assert br.points == 1 and br.cover_radius == 0.0
        assert abs(br.lower - top) < 1e-12 and abs(br.upper - top) < 1e-12


@pytest.fixture
def grid_calls(monkeypatch):
    """Calls made to ``engine.pnr_grid_oracle`` during the test."""
    calls = []
    grid = engine.pnr_grid_oracle

    def counting_grid(*args, **kwargs):
        calls.append(1)
        return grid(*args, **kwargs)

    monkeypatch.setattr(engine, "pnr_grid_oracle", counting_grid)
    return calls


class TestDetBenchmark:
    def test_grid_only_for_the_final_bracket(self, grid_calls):
        # separation runs the seesaw alone; the grid is tried once for the
        # final bracket, and here its bound lies above the spectral one
        omega = rand_separable(2, 2, np.random.default_rng(6))
        report = det_benchmark(omega, PnrConfig())
        assert report.converged and report.method == "spectral"
        assert len(grid_calls) == 1

    def test_no_grid_once_the_score_meets_the_top_eigenvalue(self, grid_calls):
        # on this product omega the strategy's exact score reaches the
        # sandwiched operator's largest eigenvalue, which the grid's bound
        # can never undercut
        omega = rand_separable(2, 2, np.random.default_rng(5), terms=1)
        report = det_benchmark(omega, FAST)
        assert report.converged and report.method == "spectral"
        assert report.upper == report.value
        assert grid_calls == []

    def test_upper_end_runs_no_search(self, monkeypatch):
        # every seesaw search is a separation round; the bracket's upper end
        # is read from tau_min without one
        searches, rounds = [], []
        search, violated = engine._search, engine._violated_cuts

        def counting_search(*args, **kwargs):
            searches.append(1)
            return search(*args, **kwargs)

        def counting_violated(*args, **kwargs):
            rounds.append(1)
            return violated(*args, **kwargs)

        monkeypatch.setattr(engine, "_search", counting_search)
        monkeypatch.setattr(engine, "_violated_cuts", counting_violated)
        report = det_benchmark(rand_separable(2, 3, np.random.default_rng(2)), FAST)
        assert len(searches) == len(rounds) > 0
        assert report.converged and report.method == "spectral"
        assert report.restarts == 1 + 3 + FAST.restarts

    def test_teleport_generic_path(self):
        report = det_benchmark(teleport_test(2).omega, FAST)
        assert abs(report.value - 2.0 / 3.0) < 1e-6
        assert report.converged
        # the minimiser is the maximally mixed state
        assert np.allclose(report.tau_min.matrix, np.eye(2) / 2, atol=1e-3)

    def test_teleport_closed_form_matches_generic(self):
        generic = det_benchmark(teleport_test(2).omega, FAST)
        closed = det_benchmark(
            teleport_test(2).omega, FAST, rep=heisenberg_weyl_rep(2)
        )
        assert closed.method == "closed_form"
        assert abs(closed.value - 2.0 / 3.0) < 1e-9
        assert abs(generic.value - closed.value) < 1e-6

    def test_equator_generic_path(self):
        report = det_benchmark(equator_test(3).omega, FAST)
        assert abs(report.value - 0.75) < 1e-6

    def test_non_ppt_rejected(self):
        with pytest.raises(ContractError):
            det_benchmark(chsh_test().omega, FAST)

    def test_scaled_operator_keeps_its_bracket(self):
        # the cutting-plane gap operator peaks near 0, where every seesaw
        # value must be the objective at its pair at any scale of omega
        omega, scale = workload_det_omega(), 1e10
        report = det_benchmark(omega, PnrConfig())
        scaled = det_benchmark(Operator(scale * omega.matrix, omega.dims), PnrConfig())
        assert scaled.converged
        assert scaled.value / scale <= report.upper and report.value <= scaled.upper / scale

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        d_out=st.integers(2, 3),
        d_in=st.integers(2, 3),
        terms=st.integers(1, 3),
        in_rank=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lower_is_the_strategy_score(self, d_out, d_in, terms, in_rank, seed):
        # few low-rank terms leave part of the input space unused
        rng = np.random.default_rng(seed)
        omega = rand_separable(d_out, d_in, rng, terms, min(in_rank, d_in))
        report = det_benchmark(omega, PnrConfig(restarts=4))
        assert report.value <= report.upper
        assert report.to_json()["lower"] == report.value
        assert report.strategy.trace_preserving
        score = score_det_jam(omega, jamiolkowski(report.strategy))
        assert abs(score - report.value) < 1e-9
        assert report.tau_min.is_unit_trace()
        assert np.linalg.eigvalsh(report.tau_min.matrix)[0] > 0

    def test_exhausted_cut_budget_raises_with_bracket(self, monkeypatch):
        # a negative tolerance is never met, so the loop runs out of rounds
        monkeypatch.setattr(engine, "CUT_TOL", -1.0)
        monkeypatch.setattr(engine, "CUT_ROUNDS_PER_COORD", 1)
        omega = rand_separable(2, 2, np.random.default_rng(3))
        with pytest.raises(SearchError) as exc:
            det_benchmark(omega, FAST)
        best = exc.value.best
        assert not best.converged
        assert best.value <= best.upper
        assert abs(score_det_jam(omega, jamiolkowski(best.strategy)) - best.value) < 1e-9

    def test_report_json_fields(self):
        report = det_benchmark(teleport_test(2).omega, FAST, rep=heisenberg_weyl_rep(2))
        payload = report.to_json()
        for key in ("value", "lower", "upper", "tau_min", "method", "restarts"):
            assert key in payload
        assert payload["cut_rounds"] == payload["cuts"] == 0
        generic = det_benchmark(teleport_test(2).omega, FAST).to_json()
        # the loop starts from d_in**2 cuts and solves the master LP each round
        assert generic["cut_rounds"] >= 1 and generic["cuts"] >= 4

    def test_exhausted_pivot_budget_raises(self, monkeypatch):
        # the first master LP needs no pivot; the first added cut does
        monkeypatch.setattr(engine, "LP_PIVOTS_PER_ROW", 0)
        omega = rand_separable(2, 2, np.random.default_rng(3))
        with pytest.raises(ArithmeticError, match="master LP failed"):
            det_benchmark(omega, FAST)

    def test_degenerate_ring_converges(self):
        # the four-state coherent ring's master LP meets degenerate vertices
        # at its optimum, 0.9944227349; the perturbed ratio test leaves them
        omega = coherent_ring_omega(4, 1.5)
        report = det_benchmark(omega)
        scale = np.abs(np.linalg.eigvalsh(omega.matrix)).max()
        assert report.converged
        assert abs(report.value - 0.9944227349) <= omega.dims[1] * engine.CUT_TOL * scale


class TestMasterLp:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        d_out=st.integers(1, 3),
        d_in=st.integers(1, 4),
        in_rank=st.integers(1, 4),
        extra=st.integers(0, 30),
        repeats=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_linprog(self, d_out, d_in, in_rank, extra, repeats, seed):
        rng = np.random.default_rng(seed)
        omega = rand_separable(d_out, d_in, rng, 2, min(in_rank, d_in))
        z = rng.normal(size=(extra, 2, d_in))
        drawn = z[:, 0] + 1j * z[:, 1]
        cuts = np.vstack([engine._ic_cuts(d_in), drawn / np.linalg.norm(drawn, axis=1)[:, None]])
        cuts = np.vstack([cuts, cuts[rng.integers(0, len(cuts), repeats)]])
        floors, _ = engine._cut_floors(omega.matrix.reshape(d_out, d_in, d_out, d_in), cuts)

        scale = np.abs(np.linalg.eigvalsh(omega.matrix)).max()
        y, p, _ = engine._master_lp(cuts, floors, np.arange(d_in * d_in), scale)

        herm = engine._hermitian_basis(d_in)
        rows = np.einsum("ir,krs,is->ik", cuts.conj(), herm, cuts).real
        ref = linprog(
            np.trace(herm, axis1=1, axis2=2).real, A_ub=-rows, b_ub=-floors,
            bounds=(None, None),
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert ref.status == 0
        trace = np.trace(y).real
        assert abs(trace - ref.fun) <= 1e-9 * max(1.0, abs(trace))
        assert np.all(p >= 0)
        assert np.linalg.norm((cuts.T * p) @ cuts.conj() - np.eye(d_in)) <= 1e-10
        # Y is the primal optimum: it meets every cut
        assert np.all(np.einsum("ir,rs,is->i", cuts.conj(), y, cuts).real >= floors - 1e-9)


class TestCoherentRings:
    """Det thresholds of K coherent states alpha * e^(2 pi i j / K), reduced
    exactly to dims (K, K) through their Gram matrix."""

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(2, 4), alpha=st.floats(0.2, 3.0))
    @example(4, 1.5)
    @example(4, 1.66)
    def test_every_ring_converges(self, k, alpha):
        report = det_benchmark(coherent_ring_omega(k, alpha))
        assert report.converged
        assert report.value <= report.upper
        # lower is the exact score of a channel: a fidelity
        assert report.value <= 1.0

    def test_two_states_meet_the_closed_form(self):
        # the paper's finite-set benchmark for +-alpha, above the 1/2 that
        # experiments quote for all coherent states
        for alpha in np.linspace(0.2, 3.0, 15):
            s = np.exp(-2 * alpha**2)
            exact = (1 + np.sqrt(1 - s**2 + s**4)) / 2
            lower = det_benchmark(coherent_ring_omega(2, alpha)).value
            assert abs(lower - exact) <= 1e-9
            assert lower > 0.5


class TestProbBenchmark:
    def test_equator_threshold(self):
        assert abs(prob_benchmark(equator_test(3), FAST) - 0.75) < 1e-9

    def test_chsh_threshold_without_ppt(self):
        # the ratio form stays exact for non-PPT operators
        assert abs(prob_benchmark(chsh_test(), FAST) - np.sqrt(2.0)) < 1e-9

    def test_teleport_threshold(self):
        assert abs(prob_benchmark(teleport_test(2), FAST) - 2.0 / 3.0) < 1e-9

    def test_grid_runs_only_below_the_top_eigenvalue(self, grid_calls):
        # teleport's seesaw value attains the largest eigenvalue: no grid
        res = prob_benchmark(teleport_test(2), FAST, _details=True)
        assert grid_calls == []
        assert res.method == "spectral" and res.upper == res.value
        # chsh's lies below it, and the grid tightens upper
        res = prob_benchmark(chsh_test(), FAST, _details=True)
        assert len(grid_calls) == 1
        assert res.method == "grid" and res.value < res.upper

    def test_support_leak_raises(self):
        t = teleport_test(2)
        bad = ProbTest(t.omega, Operator(np.diag([1.0, 0.0]).astype(complex), (2,)))
        with pytest.raises(SupportError):
            prob_benchmark(bad, FAST)

    def test_slightly_negative_marginal_is_kernel(self):
        # is_psd accepts -1e-10; it must count as kernel, not be raised to -1/2
        t = teleport_test(2)
        sigma = Operator(np.diag([1.0 + 1e-10, -1e-10]).astype(complex), (2,))
        with pytest.raises(SupportError) as exc:
            prob_benchmark(ProbTest(t.omega, sigma), FAST)
        # the offending vector lies on input |1>, the negative direction
        assert np.allclose(exc.value.direction.reshape(2, 2)[:, 0], 0.0)


class TestCovariance:
    def test_builtin_reps_are_covariant(self):
        assert check_covariance(teleport_test(2).omega, heisenberg_weyl_rep(2))
        assert check_covariance(teleport_test(3).omega, heisenberg_weyl_rep(3))
        assert check_covariance(equator_test(3).omega, pauli_rep())
        assert check_covariance(chsh_test().omega, tilde_pauli_rep())

    def test_generic_operator_is_not(self):
        m = Operator(
            np.kron(rand_hermitian(2, RNG), rand_hermitian(2, RNG)), (2, 2)
        )
        assert not check_covariance(m, pauli_rep())

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-9])
    def test_perturbation_is_seen_at_every_scale(self, scale):
        # the rule is relative to ||omega||: a 0.05 defect stays a defect
        m = teleport_test(3).omega.matrix.copy()
        m[0, 0] += 0.05
        assert not check_covariance(Operator(scale * m, (3, 3)), heisenberg_weyl_rep(3))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            check_covariance(teleport_test(3).omega, pauli_rep())

    def test_covariant_benchmarks(self):
        for t, rep, expect in COVARIANT_CASES:
            assert abs(det_benchmark(t.omega, FAST, rep=rep).value - expect) < 1e-9

    @pytest.mark.parametrize("case", range(len(COVARIANT_CASES)))
    def test_covariant_report_scores_its_strategy(self, case):
        t, rep, _ = COVARIANT_CASES[case]
        report = det_benchmark(t.omega, FAST, rep=rep)
        assert isinstance(report.strategy, Channel)
        assert report.strategy.trace_preserving
        assert report.value == score_det_jam(t.omega, jamiolkowski(report.strategy))
        assert report.value <= report.upper
        got, _ = score_prob(t, report.strategy)
        assert abs(got - prob_benchmark(t, FAST)) < 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_teleport_brackets_are_not_inverted(self, d):
        # the spectral bound can undercut the seesaw value by roundoff
        t = teleport_test(d)
        res = prob_benchmark(t, PnrConfig(), _details=True)
        assert res.value <= res.upper
        report = det_benchmark(t.omega, PnrConfig(), rep=heisenberg_weyl_rep(d))
        assert report.value <= report.upper

    def test_reducible_rep_rejected(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        rep = GroupRep([(np.eye(2), np.eye(2)), (z, z)])
        with pytest.raises(ContractError):
            det_benchmark(equator_test(3).omega, FAST, rep=rep)

    @pytest.mark.parametrize(
        "rep",
        [pauli_rep(), tilde_pauli_rep(), clifford_rep(2), clifford_rep(3)]
        + [heisenberg_weyl_rep(d) for d in (2, 3, 4, 5)],
    )
    def test_every_preset_rep_is_irreducible(self, rep):
        engine._check_irreducible(rep)

    @pytest.mark.parametrize("rep", [pauli_rep(), heisenberg_weyl_rep(3)])
    def test_direct_sum_is_reducible(self, rep):
        # U ⊕ U fixes each copy's block: frame potential 4, not 1
        def twice(u):
            return np.kron(np.eye(2), u)

        doubled = GroupRep(
            [(twice(o), twice(i)) for o, i in zip(rep.elements_out, rep.elements_in)]
        )
        with pytest.raises(ContractError, match="reducible"):
            engine._check_irreducible(doubled)

    def test_twirl_leaves_covariant_score_fixed(self):
        t = teleport_test(2)
        rep = heisenberg_weyl_rep(2)
        for _ in range(5):
            c = rand_channel(2, 2, 2, RNG)
            s0, _ = score_prob(t, c)
            s1, _ = score_prob(t, twirl_channel(c, rep))
            assert abs(s0 - s1) < 1e-10


def rand_unitary(d: int, rng) -> np.ndarray:
    """Haar unitary: the QR of a complex Gaussian matrix, phases fixed."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def spectral_radius(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(m)).max())


SYMMETRY_SCALES = (1e-8, 1e-3, 1e3, 1e8)
# roundoff allowed when two brackets, mapped back, are compared, per rho
BRACKET_ROUNDOFF = 1e-12
SYMMETRY_BUILTINS = (teleport_test(2), teleport_test(3), chsh_test(), equator_test(3))


def symmetric_images(omega: np.ndarray, v: np.ndarray, rng, shift: np.ndarray):
    """(transformed omega, its scale s, its shift c) for each of the problem's
    symmetries, in this order: s * omega for each of ``SYMMETRY_SCALES``,
    (U ⊗ v) omega (U ⊗ v)† for a random U, and omega + c * ``shift`` for c in
    (0, 1].  A threshold maps back as t' / s - c * (its move per unit c)."""
    u = np.kron(rand_unitary(len(omega) // len(v), rng), v)
    c = 1.0 - rng.uniform()
    images = [(s * omega, s, 0.0) for s in SYMMETRY_SCALES]
    images.append((u @ omega @ u.conj().T, 1.0, 0.0))
    images.append((omega + c * shift, 1.0, c))
    return images


def assert_brackets_agree(base, image, s, moved, rho):
    """``image`` = (lower, upper) at the transformed input, mapped back by
    ``/ s`` and ``- moved``, overlaps ``base``."""
    lower, upper = (x / s - moved for x in image)
    slack = BRACKET_ROUNDOFF * rho
    assert max(lower, base[0]) <= min(upper, base[1]) + slack, (base, (lower, upper))


class TestSymmetries:
    """A threshold is homogeneous in omega, invariant under local unitaries
    and shifts with omega + c * I; every engine tolerance is relative to
    omega's spectral radius, so the numbers follow at every scale."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(d_out=st.integers(2, 3), d_in=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_det_threshold(self, d_out, d_in, seed):
        rng = np.random.default_rng(seed)
        omega = rand_separable(d_out, d_in, rng).matrix
        dims = (d_out, d_in)
        base = det_benchmark(Operator(omega, dims), FAST)
        rho = spectral_radius(omega)
        images = symmetric_images(omega, rand_unitary(d_in, rng), rng, np.eye(d_out * d_in))
        for image, s, c in images:
            report = det_benchmark(Operator(image, dims), FAST)
            assert report.converged
            # every trace-preserving Choi operator has trace d_in
            moved = c * d_in
            pair_rho = max(rho, spectral_radius(image) / s)
            assert_brackets_agree((base.value, base.upper), (report.value, report.upper),
                                  s, moved, pair_rho)
            # both lower ends lie within d_in * CUT_TOL * rho below the threshold
            assert abs(report.value / s - moved - base.value) <= d_in * engine.CUT_TOL * pair_rho

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(case=st.integers(-1, len(SYMMETRY_BUILTINS) - 1), d_out=st.integers(2, 3),
           d_in=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_product_range_and_prob_threshold(self, case, d_out, d_in, seed):
        rng = np.random.default_rng(seed)
        if case < 0:
            test = ProbTest(rand_separable(d_out, d_in, rng), rand_density(d_in, rng))
        else:
            test = SYMMETRY_BUILTINS[case]
        omega, dims, sigma = test.omega.matrix, test.omega.dims, test.sigma_A.matrix
        rho = spectral_radius(omega)
        base = product_numerical_range(test.omega, FAST)
        images = symmetric_images(omega, rand_unitary(dims[1], rng), rng, np.eye(len(omega)))
        for image, s, c in images:
            res = product_numerical_range(Operator(image, dims), FAST)
            assert_brackets_agree((base.value, base.upper), (res.value, res.upper), s, c,
                                  max(rho, spectral_radius(image) / s))

        # the prob threshold: sigma_A turns with V, and omega + c * (I ⊗ sigma_A)
        # shifts its sandwiched operator, so the threshold, by c
        sandwiched_rho = spectral_radius(engine._sandwich(test.omega, sigma).matrix)
        base = prob_benchmark(test, FAST, _details=True)
        v = rand_unitary(dims[1], rng)
        images = symmetric_images(omega, v, rng, np.kron(np.eye(dims[0]), sigma))
        for index, (image, s, c) in enumerate(images):
            turned = index == len(SYMMETRY_SCALES)
            state = v @ sigma @ v.conj().T if turned else sigma
            res = prob_benchmark(ProbTest(Operator(image, dims), Operator(state, (dims[1],))),
                                 FAST, _details=True)
            assert_brackets_agree((base.value, base.upper), (res.value, res.upper), s, c,
                                  sandwiched_rho + c)


class TestPptOffset:
    def test_shift_makes_psd(self):
        shifted, offset = ppt_offset(chsh_test().omega)
        assert offset == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert np.linalg.eigvalsh(shifted.matrix).min() > -1e-12
        assert abs(check_ppt(shifted)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_shift_is_the_partial_transpose_floor(self, d):
        # -SWAP has spectral norm 1, but its partial transpose is -d·|Φ+><Φ+|,
        # so only a shift by d makes it PPT
        shifted, offset = ppt_offset(Operator(-swap_operator(d), (d, d)))
        assert offset == pytest.approx(d, abs=1e-12)
        assert abs(check_ppt(shifted)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("scale", [1e-12, 1e8])
    def test_floor_scales_with_the_operator(self, d, scale):
        # the PPT floor is relative to the partial transpose's spectral radius
        shifted, offset = ppt_offset(Operator(-scale * swap_operator(d), (d, d)))
        assert offset == pytest.approx(d * scale, rel=1e-12)
        assert check_ppt(shifted) >= -1e-12 * scale
        with pytest.raises(ContractError):
            check_ppt(Operator(scale * chsh_test().omega.matrix, (2, 2)))

    def test_ppt_input_is_not_shifted(self):
        omega = teleport_test(2).omega
        shifted, offset = ppt_offset(omega)
        assert offset == 0.0
        assert np.array_equal(shifted.matrix, omega.matrix)

    def test_non_hermitian_input_rejected(self):
        with pytest.raises(ContractError):
            ppt_offset(Operator(np.triu(np.ones((4, 4))), (2, 2)))

    def test_observable_shift_cancels_for_tp_devices(self):
        # scoring against O + cI then subtracting c is exact
        for _ in range(10):
            sigma = rand_density(4, RNG)
            obs = Operator(rand_hermitian(4, RNG), (2, 2))
            shifted, c0 = ppt_offset(obs)
            t_raw = DetTest(Operator(sigma.matrix, (2, 2)), obs)
            t_shift = DetTest(Operator(sigma.matrix, (2, 2)), shifted)
            dev = rand_channel(2, 2, 3, RNG)
            raw = score_det_direct(t_raw, dev)
            undone = score_det_direct(t_shift, dev) - c0
            assert abs(raw - undone) < 1e-10

    def test_benchmark_shift_scales_with_input_dim(self):
        # benchmark(omega + cI) = benchmark(omega) + c * d_in on covariant tests
        omega = chsh_test().omega
        shifted, c0 = ppt_offset(omega)
        rep = tilde_pauli_rep()
        v_shift = det_benchmark(shifted, FAST, rep=rep).value
        assert abs((v_shift - c0 * 2) - np.sqrt(2.0)) < 1e-9


class TestOptimalMpChannel:
    """The covariant report's ``strategy``: the channel attaining the threshold."""

    def test_achieves_teleport_benchmark(self):
        t = teleport_test(2)
        c = det_benchmark(t.omega, FAST, rep=heisenberg_weyl_rep(2)).strategy
        s, p = score_prob(t, c)
        assert abs(s - 2.0 / 3.0) < 1e-6
        assert abs(p - 1.0) < 1e-9

    def test_achieves_chsh_benchmark(self):
        t = chsh_test()
        c = det_benchmark(t.omega, FAST, rep=tilde_pauli_rep()).strategy
        s, _ = score_prob(t, c)
        assert abs(s - np.sqrt(2.0)) < 1e-6

    def test_achieves_equator_benchmark(self):
        t = equator_test(3)
        c = det_benchmark(t.omega, FAST, rep=pauli_rep()).strategy
        s, _ = score_prob(t, c)
        assert abs(s - 0.75) < 1e-6

    def test_runs_one_product_range_search(self, monkeypatch):
        # the threshold and its channel come from the same seesaw search
        calls = []
        search = engine._search

        def counting_search(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(engine, "_search", counting_search)
        report = det_benchmark(teleport_test(2).omega, FAST, rep=heisenberg_weyl_rep(2))
        assert report.strategy is not None
        assert len(calls) == 1

    def test_resulting_channel_is_mp(self):
        c = det_benchmark(
            teleport_test(2).omega, FAST, rep=heisenberg_weyl_rep(2)
        ).strategy
        assert c.trace_preserving
        from qbench.linalg import partial_transpose

        pt = partial_transpose(jamiolkowski(c), 1)
        assert np.linalg.eigvalsh(pt.matrix).min() > -1e-9


class TestGroupRep:
    def test_non_unitary_rejected(self):
        with pytest.raises(ContractError):
            GroupRep([(np.eye(2) * 2.0, np.eye(2))])

    def test_mismatched_element_shapes_rejected(self):
        i2, i3 = np.eye(2), np.eye(3)
        with pytest.raises(DimensionError, match="group element 1"):
            GroupRep([(i2, i2), (i3, i3)])
        with pytest.raises(DimensionError):
            GroupRep([(i2, i3), (i2, i2)])

    def test_ppt_check_reports_eigenvalue(self):
        low = check_ppt(teleport_test(2).omega)
        assert low > -1e-12
        with pytest.raises(ContractError):
            check_ppt(chsh_test().omega)
