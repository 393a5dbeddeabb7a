"""Benchmark computation: product numerical range and threshold searches.

The central quantity is the product numerical range of a bipartite
Hermitian operator,

    pnr(M) = max { <a ⊗ b| M |a ⊗ b> : |a>, |b> unit vectors },

computed by an alternating eigenvector seesaw, all starts batched: each
sweep conditions every running start on one factor with one GEMM and takes
the top eigenvectors with one stacked ``eigh``.  The probabilistic
threshold is the product numerical range of a sandwiched performance
operator.  The deterministic threshold is the linear program

    min tr Y  subject to  <a b|Omega|a b> <= <b|Y|b>  for every product (a, b),

whose dual is the best measure-and-prepare score.  Cutting planes solve
it: a master LP over Hermitian Y, with the seesaw as separation oracle.
The LP duals are a POVM, so the bracket's lower end is the exact score of
an explicit channel; its upper end is a certified product-range bound at
the reference state ``Y / tr Y``.  For group-covariant tests both
thresholds collapse to a closed form ``d * pnr(omega)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError, SearchError, SupportError
from .linalg import (
    Operator,
    hermitian_eig,
    operator_to_json,
    partial_transpose,
    psd_power_on_support,
    support_rank,
)
from .model import Channel, ProbTest, jamiolkowski, mp_channel, score_det_jam

PPT_TOL = 1e-9
COVARIANCE_TOL = 1e-9
IRREDUCIBILITY_TOL = 1e-8
DEFAULT_RESTARTS = 64
DEFAULT_SEED = 7
SUPPORT_TOL = 1e-9
# Cutting planes stop when no product pair violates Y by more than
# CUT_TOL * max(1, |tr Y|) and give up after CUT_ROUNDS_PER_COORD * d_in**2 rounds.
CUT_TOL = 1e-6
CUT_ROUNDS_PER_COORD = 50
# A seesaw start stops on a sweep gaining <= SEESAW_TOL * max(1, |value|) or after
# SEESAW_MAX_ITER sweeps.
SEESAW_TOL = 1e-12
SEESAW_MAX_ITER = 1000


def __getattr__(name: str):
    # bench/spans.py wraps ``engine.minimize`` by name; resolving it on
    # lookup keeps scipy.optimize out of ``import qbench.engine``.
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import minimize
    return minimize


# ---------------------------------------------------------------------------
# configuration and result records


@dataclass(frozen=True)
class PnrConfig:
    """Random starts of the product-numerical-range search: ``restarts`` points
    drawn from ``seed``, on top of the structured ones (Schmidt pair of the top
    eigenvector, computational-basis states)."""

    restarts: int = DEFAULT_RESTARTS
    seed: int | None = DEFAULT_SEED


@dataclass(frozen=True)
class PnrResult:
    """Outcome of a product-numerical-range search.

    ``value`` is the best certified-feasible objective found, ``lower``
    and ``upper`` bracket the true maximum (``lower == value`` always;
    ``upper`` is the spectral bound, tightened by the grid oracle on
    two-qubit operators).  The maximizers are unit vectors on the two factors.
    """

    value: float
    maximizer_a: np.ndarray
    maximizer_b: np.ndarray
    lower: float
    upper: float
    method: str
    restarts: int
    iterations: int = 0


@dataclass(frozen=True)
class GridBracket:
    """Certified two-sided bracket from the exhaustive grid oracle."""

    lower: float
    upper: float
    mesh: float
    cover_radius: float
    points: int


@dataclass(frozen=True)
class GroupRep:
    """Paired unitary representation acting on the two test factors.

    Element ``g`` acts as ``U'_g`` on the output factor and ``U_g`` on
    the input factor; ``weights`` is a probability vector over elements.
    """

    elements_out: tuple[np.ndarray, ...]
    elements_in: tuple[np.ndarray, ...]
    weights: np.ndarray

    def __init__(
        self,
        pairs: Sequence[tuple[np.ndarray, np.ndarray]],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not pairs:
            raise ContractError("group representation needs at least one element")
        outs = []
        ins = []
        for u_out, u_in in pairs:
            outs.append(_check_unitary(np.asarray(u_out, dtype=complex)))
            ins.append(_check_unitary(np.asarray(u_in, dtype=complex)))
        if weights is None:
            w = np.full(len(pairs), 1.0 / len(pairs))
        else:
            w = np.asarray(weights, dtype=float)
        if w.shape != (len(pairs),) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ContractError("weights must be a probability vector over elements")
        object.__setattr__(self, "elements_out", tuple(outs))
        object.__setattr__(self, "elements_in", tuple(ins))
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.elements_in)

    @property
    def dim_in(self) -> int:
        return self.elements_in[0].shape[0]

    @property
    def dim_out(self) -> int:
        return self.elements_out[0].shape[0]


def _check_unitary(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"group element must be square, got {u.shape}")
    gap = u.conj().T @ u - np.eye(u.shape[0])
    if np.linalg.norm(gap) > tol * max(1.0, np.sqrt(u.shape[0])):
        raise ContractError("group element is not unitary")
    return u


@dataclass(frozen=True)
class BenchmarkReport:
    """Deterministic-benchmark result: threshold value plus diagnostics."""

    value: float
    tau_min: Operator
    lower: float
    upper: float
    method: str
    restarts: int
    converged: bool
    pnr: PnrResult | None = field(default=None, repr=False)
    # the measure-and-prepare channel scored as ``lower``; not in the JSON
    strategy: Channel | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "tau_min": operator_to_json(self.tau_min),
            "method": self.method,
            "restarts": self.restarts,
            "converged": self.converged,
        }


# ---------------------------------------------------------------------------
# product numerical range


def _phase_fix(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    ph = v[k] / abs(v[k]) if abs(v[k]) > 0 else 1.0
    return v / ph


def _pnr_value(m4: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(
        np.real(np.einsum("xrys,x,r,y,s->", m4, a.conj(), b.conj(), a, b))
    )


def _top_eigvec(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenpair of the Hermitian part of ``h``, or of each in a stack."""
    w, v = np.linalg.eigh(0.5 * (h + np.conj(np.swapaxes(h, -1, -2))))
    return w[..., -1], v[..., -1]


def _outer_rows(v: np.ndarray) -> np.ndarray:
    """Row n is the flattened ``conj(v_n) v_n^T``."""
    return (v.conj()[:, :, None] * v[:, None, :]).reshape(len(v), -1)


def _pair_matrix(m4: np.ndarray) -> np.ndarray:
    """``M[x,r,y,s]`` with row ``(r, s)`` and column ``(x, y)``.

    Conditioning on many vectors is then one GEMM: ``_outer_rows(b) @ t``
    stacks ``<b|M|b>`` on the output factor, ``_outer_rows(a) @ t.T``
    stacks ``<a|M|a>`` on the input factor.
    """
    d_out, d_in = m4.shape[:2]
    return m4.transpose(1, 3, 0, 2).reshape(d_in * d_in, d_out * d_out)


def _seesaw_batch(
    m4: np.ndarray, b0: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Alternating top-eigenvector seesaw from every row of ``b0`` at once.

    A start stops once a sweep gains no more than ``tol * max(1, |value|)``
    and leaves the batch, so each sweep is one stacked ``eigh`` per side
    over the starts still running.  Returns each start's best value, its
    last ``(a, b)`` pair and its sweep count.
    """
    d_out, d_in = m4.shape[:2]
    t = _pair_matrix(m4)
    b = b0 / np.linalg.norm(b0, axis=1, keepdims=True)
    a = np.zeros((len(b), d_out), dtype=complex)
    best = np.full(len(b), -np.inf)
    sweeps = np.zeros(len(b), dtype=int)
    active = np.arange(len(b))
    for _ in range(max_iter):
        n = active.size
        _, aa = _top_eigvec((_outer_rows(b[active]) @ t).reshape(n, d_out, d_out))
        val, bb = _top_eigvec((_outer_rows(aa) @ t.T).reshape(n, d_in, d_in))
        a[active], b[active] = aa, bb
        sweeps[active] += 1
        done = val <= best[active] + tol * np.maximum(1.0, np.abs(val))
        best[active] = np.maximum(best[active], val)
        active = active[~done]
        if not active.size:
            break
    return best, a, b, sweeps


def _starts(top: np.ndarray, restarts: int, seed: int | None) -> np.ndarray:
    """Input-side starting vectors: the Schmidt vector of M's top eigenvector
    ``top`` (a d_out × d_in matrix), the basis, then ``restarts`` random."""
    d_in = top.shape[1]
    _, _, vh = np.linalg.svd(top)
    z = np.random.default_rng(seed).normal(size=(restarts, 2, d_in))
    return np.vstack(
        [vh[:1].conj(), np.eye(d_in, dtype=complex), z[:, 0] + 1j * z[:, 1]]
    )


def _search(m4: np.ndarray, top: np.ndarray, cfg: PnrConfig) -> tuple:
    """Batched seesaw from every start: the best value, its phase-fixed
    maximizers ``(a, b)``, the start count and the total sweep count."""
    starts = _starts(top.reshape(m4.shape[:2]), cfg.restarts, cfg.seed)
    vals, a, b, sweeps = _seesaw_batch(m4, starts, SEESAW_TOL, SEESAW_MAX_ITER)
    k = int(np.argmax(vals))
    value = float(vals[k])
    a, b = _phase_fix(a[k]), _phase_fix(b[k])
    check = _pnr_value(m4, a, b)
    if abs(check - value) > 1e-9 * max(1.0, abs(value)):
        raise ArithmeticError(
            f"maximizer does not reproduce the search value: {check} vs {value}"
        )
    return value, a, b, len(starts), int(sweeps.sum())


def product_numerical_range(m: Operator, cfg: PnrConfig | None = None) -> PnrResult:
    """Maximum of ``<a⊗b|M|a⊗b>`` over product unit vectors.

    Runs an alternating top-eigenvector seesaw, all starts batched, from
    structured and random starting points; each start stops on its own
    ``SEESAW_TOL``.  Each sweep is monotone, so the reported value is a
    true lower bound; ``upper`` is the largest eigenvalue of ``M`` (a
    product maximum can never exceed it), tightened by the certified grid
    oracle when both factors are at most qubits.
    """
    if not m.is_hermitian():
        raise ContractError("product numerical range needs a Hermitian operator")
    m4 = m.matrix.reshape(m.dims * 2)
    eigs, vecs = hermitian_eig(m)
    value, a, b, restarts, sweeps = _search(m4, vecs[:, -1], cfg or PnrConfig())
    upper = float(eigs[-1])
    method = "seesaw"
    if max(m.dims) <= 2:
        bracket = pnr_grid_oracle(m)
        value = max(value, bracket.lower)
        # roundoff in the grid bound can undercut a certified-feasible
        # value by ~1e-15; never report an inverted bracket
        upper = max(min(upper, bracket.upper), value)
        method = "grid"
    return PnrResult(
        value=value,
        maximizer_a=a,
        maximizer_b=b,
        lower=value,
        upper=upper,
        method=method,
        restarts=restarts,
        iterations=sweeps,
    )


def _sphere_grid(dim: int, mesh: float) -> tuple[np.ndarray, float]:
    """All-states grid on C^dim with its covering radius in 2-norm.

    Hyperspherical parametrisation: magnitude angles on [0, pi/2] (the
    first on [0, pi] carries no phase for dim == 2), one phase per
    trailing component.  Every parameter has gradient norm <= 1, so the
    covering radius is bounded by (number of parameters) * mesh / 2.  C^1
    has one state up to phase, so its grid is exact.
    """
    if dim == 1:
        return np.ones((1, 1), dtype=complex), 0.0
    if dim == 2:
        thetas = np.arange(0.0, np.pi + mesh, mesh)
        phis = np.arange(0.0, 2 * np.pi, mesh)
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        states = np.stack(
            [np.cos(tt / 2).ravel(), (np.exp(1j * pp) * np.sin(tt / 2)).ravel()],
            axis=1,
        )
        # d(state)/d(theta) has norm 1/2, d/d(phi) at most 1.
        radius = 0.5 * mesh * (0.5 + 1.0)
        return states, radius
    n_mag = dim - 1
    mags = [np.arange(0.0, np.pi / 2 + mesh, mesh)] * n_mag
    phases = [np.arange(0.0, 2 * np.pi, mesh)] * (dim - 1)
    grids = np.meshgrid(*mags, *phases, indexing="ij")
    flat = [g.ravel() for g in grids]
    count = flat[0].size
    states = np.empty((count, dim), dtype=complex)
    sin_prod = np.ones(count)
    for k in range(n_mag):
        states[:, k] = sin_prod * np.cos(flat[k])
        sin_prod = sin_prod * np.sin(flat[k])
    states[:, dim - 1] = sin_prod
    for k in range(1, dim):
        states[:, k] = states[:, k] * np.exp(1j * flat[n_mag + k - 1])
    radius = 0.5 * mesh * (2 * dim - 2)
    return states, radius


def pnr_grid_oracle(m: Operator, mesh: float = 0.05) -> GridBracket:
    """Certified bracket on the product numerical range by exhaustion.

    Grids the smaller factor's state space and solves the other factor
    exactly by eigendecomposition.  The upper bound follows from the
    Lipschitz constant 2*||M||_2 of the objective in the gridded vector
    together with the grid's covering radius.  Guarded to small total
    dimension; the grid size is exponential in the gridded factor.
    """
    if not m.is_hermitian():
        raise ContractError("grid oracle needs a Hermitian operator")
    d_out, d_in = m.dims
    if d_out * d_in > 16:
        raise DimensionError(
            f"grid oracle limited to total dimension 16, got {d_out * d_in}"
        )
    if mesh <= 0 or mesh > 0.5:
        raise ContractError(f"mesh must lie in (0, 0.5], got {mesh}")
    m4 = m.matrix.reshape(d_out, d_in, d_out, d_in)
    grid_side = "in" if d_in <= d_out else "out"
    dim = d_in if grid_side == "in" else d_out
    states, radius = _sphere_grid(dim, mesh)

    t = _pair_matrix(m4)
    if grid_side == "in":
        conditioned = (_outer_rows(states) @ t).reshape(-1, d_out, d_out)
    else:
        conditioned = (_outer_rows(states) @ t.T).reshape(-1, d_in, d_in)
    conditioned = 0.5 * (conditioned + np.conj(np.transpose(conditioned, (0, 2, 1))))
    eigs = np.linalg.eigvalsh(conditioned)
    tops = eigs[:, -1]
    k = int(np.argmax(tops))
    grid_max = float(tops[k])

    # Local polish from the best grid point sharpens the lower bound; the
    # certificate still uses the raw grid maximum.
    if grid_side == "in":
        b0 = states[k]
    else:
        _, b0 = _top_eigvec(conditioned[k])
    polished, _, _, _ = _seesaw_batch(m4, b0[None], 1e-13, 200)

    spectral = float(np.max(np.abs(np.linalg.eigvalsh(m.matrix))))
    upper = grid_max + 2.0 * spectral * radius
    return GridBracket(
        lower=max(grid_max, float(polished[0])),
        upper=upper,
        mesh=mesh,
        cover_radius=radius,
        points=states.shape[0],
    )


# ---------------------------------------------------------------------------
# sandwiched objectives and benchmarks


def _sandwich(omega: Operator, tau: np.ndarray, rank_tol: float = 1e-12) -> Operator:
    d_out, d_in = omega.dims
    root = psd_power_on_support(tau, -0.5, rank_tol)
    s = np.kron(np.eye(d_out), root) @ omega.matrix @ np.kron(np.eye(d_out), root)
    return Operator(0.5 * (s + s.conj().T), omega.dims)


def check_input_support(op: Operator, state: np.ndarray) -> None:
    """Raise ``SupportError``, naming the unit vector ``op`` maps furthest into
    the kernel of ``I ⊗ state``, unless that kernel annihilates ``op``."""
    d_out, d_in = op.dims
    w, v = np.linalg.eigh(0.5 * (state + state.conj().T))
    rank = support_rank(w)
    if rank == d_in:
        return
    kernel = v[:, : d_in - rank]
    proj = np.kron(np.eye(d_out), kernel @ kernel.conj().T)
    leak = proj @ op.matrix
    resid = np.linalg.norm(leak)
    if resid > SUPPORT_TOL * max(1.0, np.linalg.norm(op.matrix)):
        _, vecs = np.linalg.eigh(leak @ leak.conj().T)
        raise SupportError(
            "performance operator acts outside the reference state's support "
            f"(residual {resid:.3e})",
            direction=vecs[:, -1],
        )


def check_ppt(omega: Operator, tol: float = PPT_TOL) -> float:
    """Smallest eigenvalue of the partial transpose on the input factor."""
    pt = partial_transpose(omega, 1)
    eigs, _ = hermitian_eig(pt)
    low = float(eigs[0])
    if low < -tol:
        raise ContractError(
            f"operator is not PPT: partial transpose has eigenvalue {low:.3e}"
        )
    return low


def prob_benchmark(
    t: ProbTest, cfg: PnrConfig | None = None, _details: bool = False
) -> float | PnrResult:
    """Measure-and-prepare threshold for a probabilistic test.

    Equals the product numerical range of the performance operator
    sandwiched with ``sigma_A^{-1/2}`` on the input factor.  The ratio
    form of the score makes this exact for every Hermitian performance
    operator: any measure-and-prepare strategy's score is a weighted
    mediant of single-term ratios, each bounded by the sandwiched
    product maximum, and the best single term is itself attainable by a
    probabilistic strategy.
    """
    check_input_support(t.omega, t.sigma_A.matrix)
    sandwiched = _sandwich(t.omega, t.sigma_A.matrix)
    res = product_numerical_range(sandwiched, cfg)
    return res if _details else res.value


def _hermitian_basis(d: int) -> np.ndarray:
    """d² Hermitian matrices spanning the d×d Hermitian ones over the reals."""
    row, col = np.divmod(np.arange(d * d), d)
    e = np.eye(d * d).reshape(d * d, d, d)
    et = e.transpose(0, 2, 1)
    side = np.sign(col - row)[:, None, None]
    return np.where(side > 0, e + et, np.where(side < 0, 1j * (e - et), e))


def det_benchmark(
    omega: Operator,
    cfg: PnrConfig | None = None,
    rep: GroupRep | None = None,
) -> BenchmarkReport:
    """Deterministic measure-and-prepare threshold for a performance operator.

    Solves the module docstring's LP by Kelley cutting planes, from cuts at
    the computational basis until no product pair violates Y by more than
    ``CUT_TOL``.  ``lower`` and ``value`` are the exact score of
    ``strategy``, the channel the LP duals define; ``upper`` is a certified
    bound at ``tau_min`` (Y / tr Y, spectrum floored).  ``omega`` must be
    PPT on the input factor.  A covariant, irreducibly-represented group
    selects the closed form ``d_in * pnr(omega)`` instead (valid for any
    Hermitian omega).  Raises ``SearchError`` with the last round's report
    when the cut budget runs out.
    """
    cfg = cfg or PnrConfig()
    d_out, d_in = omega.dims

    if rep is not None:
        if not check_covariance(omega, rep):
            raise ContractError("performance operator is not covariant for this group")
        _check_irreducible(rep)
        pnr = product_numerical_range(omega, cfg)
        tau = Operator(np.eye(d_in) / d_in, (d_in,))
        return BenchmarkReport(
            value=d_in * pnr.value,
            tau_min=tau,
            lower=d_in * pnr.lower,
            upper=d_in * pnr.upper,
            method="closed_form",
            restarts=pnr.restarts,
            converged=True,
            pnr=pnr,
        )

    check_ppt(omega)
    # the only scipy.optimize user; imported here to keep it off the cold start
    from scipy.optimize import linprog

    m4 = omega.matrix.reshape(d_out, d_in, d_out, d_in)
    basis = _hermitian_basis(d_in)  # Y = sum_k y_k basis[k]
    cost = np.trace(basis, axis1=1, axis2=2).real
    inputs, floors, preps = [], [], []

    def add_cut(b: np.ndarray) -> None:
        floor, prep = _top_eigvec(np.einsum("xrys,r,s->xy", m4, b.conj(), b))
        inputs.append(b)
        floors.append(floor)
        preps.append(prep)

    for e in np.eye(d_in, dtype=complex):
        add_cut(e)
    rounds = CUT_ROUNDS_PER_COORD * d_in * d_in
    for _ in range(rounds):
        b = np.array(inputs)
        rows = np.einsum("ir,krs,is->ik", b.conj(), basis, b).real
        lp = linprog(cost, A_ub=-rows, b_ub=-np.array(floors), bounds=(None, None))
        if lp.status != 0:
            raise ArithmeticError(f"master LP failed: {lp.message}")
        y = np.tensordot(lp.x, basis, axes=1)
        gap = omega.matrix - np.kron(np.eye(d_out), y)
        cut, _, cut_b, _, _ = _search(gap.reshape(m4.shape), _top_eigvec(gap)[1], cfg)
        converged = cut <= CUT_TOL * max(1.0, abs(lp.fun))
        if converged:
            break
        add_cut(cut_b)

    # The duals p_i make the POVM p_i |b_i><b_i|, each outcome preparing the
    # top eigenvector of <b_i|omega|b_i>; S^-1/2 absorbs the solver's
    # residual in S = sum_i p_i |b_i><b_i| = I.
    p = -lp.ineqlin.marginals
    keep = np.flatnonzero(p > 0)
    weighted = b[keep] * np.sqrt(p[keep])[:, None]
    root = psd_power_on_support(weighted.T @ weighted.conj(), -0.5)
    povm = [np.outer(v, v.conj()) for v in weighted @ root.T]
    strategy = mp_channel(povm, [np.outer(preps[i], preps[i].conj()) for i in keep])
    if not strategy.trace_preserving:
        raise ArithmeticError("master LP duals do not span the input space")
    score = score_det_jam(omega, jamiolkowski(strategy))

    # Y is singular, up to the LP's tolerance, on input directions omega
    # does not reach; any full-rank tau gives a valid upper bound
    w, v = np.linalg.eigh(y)
    w = np.maximum(w, CUT_TOL * w[-1])
    tau = (v * (w / w.sum())) @ v.conj().T
    final = product_numerical_range(_sandwich(omega, tau), cfg)
    report = BenchmarkReport(
        value=score,
        tau_min=Operator(tau, (d_in,)),
        lower=score,
        upper=final.upper,
        method=final.method,
        restarts=final.restarts,
        converged=converged,
        pnr=final,
        strategy=strategy,
    )
    if not converged:
        raise SearchError(
            f"cutting planes still cut {cut:.3e} after {rounds} rounds",
            best=report,
        )
    return report


def covariant_benchmark(
    omega: Operator, rep: GroupRep, cfg: PnrConfig | None = None
) -> float:
    """Closed-form benchmark ``d_in * pnr(omega)`` for covariant tests."""
    return det_benchmark(omega, cfg, rep=rep).value


def check_covariance(
    omega: Operator, rep: GroupRep, tol: float = COVARIANCE_TOL
) -> bool:
    """True iff omega commutes with every ``U'_g ⊗ U_g`` of the representation."""
    d_out, d_in = omega.dims
    if rep.dim_out != d_out or rep.dim_in != d_in:
        raise DimensionError(
            f"representation dims ({rep.dim_out}, {rep.dim_in}) do not match "
            f"operator dims {omega.dims}"
        )
    scale = np.linalg.norm(omega.matrix)
    worst = 0.0
    for u_out, u_in in zip(rep.elements_out, rep.elements_in):
        u = np.kron(u_out, u_in)
        worst = max(worst, np.linalg.norm(omega.matrix @ u - u @ omega.matrix))
    return worst <= tol * max(1.0, scale)


def _check_irreducible(rep: GroupRep, seed: int = 11) -> None:
    rng = np.random.default_rng(seed)
    d = rep.dim_in
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (g + g.conj().T)
    tw = twirl_operator(h, rep.elements_in, rep.weights)
    target = np.eye(d) * (np.trace(h).real / d)
    if np.linalg.norm(tw - target) > IRREDUCIBILITY_TOL * np.linalg.norm(h):
        raise ContractError(
            "input representation is reducible: twirl of a random Hermitian "
            "is not proportional to the identity"
        )


def twirl_operator(
    h: np.ndarray, elements: Sequence[np.ndarray], weights: np.ndarray
) -> np.ndarray:
    """Weighted average of ``U h U†`` over the listed unitaries."""
    out = np.zeros_like(np.asarray(h, dtype=complex))
    for w, u in zip(weights, elements):
        out += w * (u @ h @ u.conj().T)
    return out


def twirl_channel(c: Channel, rep: GroupRep) -> Channel:
    """Group-average a channel: pre-rotate by U_g, post-rotate by U'_g†."""
    kraus = []
    for w, u_out, u_in in zip(rep.weights, rep.elements_out, rep.elements_in):
        for k in c.kraus:
            kraus.append(np.sqrt(w) * (u_out.conj().T @ k @ u_in))
    return Channel(kraus, trace_preserving=c.trace_preserving)


def ppt_offset(observable: Operator) -> tuple[Operator, float]:
    """Shift a Hermitian operator by its spectral norm to make it PSD.

    Returns the shifted operator and the shift.  For a trace-preserving
    device scored against a deterministic test observable, the raw score
    is the shifted score minus the shift exactly; for a performance
    operator the benchmark shifts by ``offset * d_in`` instead.
    """
    if not observable.is_hermitian():
        raise ContractError("offset shift needs a Hermitian operator")
    eigs, _ = hermitian_eig(observable)
    offset = float(max(abs(eigs[0]), abs(eigs[-1])))
    shifted = Operator(
        observable.matrix + offset * np.eye(observable.side), observable.dims
    )
    return shifted, offset


def optimal_mp_channel(
    omega: Operator,
    rep: GroupRep,
    cfg: PnrConfig | None = None,
) -> Channel:
    """Covariant measure-and-prepare channel achieving the benchmark.

    Measures the covariant POVM ``{ d_in w_g U_g |phi><phi| U_g† }`` built
    from the input-side product maximizer and prepares ``U'_g |psi>`` from
    the output-side one.  Completeness of the POVM is guaranteed by the
    irreducibility of the input representation and checked explicitly.
    """
    if not check_covariance(omega, rep):
        raise ContractError("performance operator is not covariant for this group")
    _check_irreducible(rep)
    if not omega.is_hermitian():
        raise ContractError("performance operator must be Hermitian")
    # only the maximizers are used, so the search runs without a certificate
    _, top = _top_eigvec(omega.matrix)
    _, psi, phi, _, _ = _search(omega.matrix.reshape(omega.dims * 2), top, cfg or PnrConfig())
    d_in = rep.dim_in
    povm = []
    outputs = []
    for w, u_out, u_in in zip(rep.weights, rep.elements_out, rep.elements_in):
        vec = u_in @ phi
        povm.append(d_in * w * np.outer(vec, vec.conj()))
        out = u_out @ psi
        outputs.append(np.outer(out, out.conj()))
    total = sum(povm)
    if np.linalg.norm(total - np.eye(d_in)) > 1e-9 * d_in:
        raise ContractError(
            "covariant POVM is incomplete; the representation does not "
            "average the maximizer to the identity"
        )
    return mp_channel(povm, outputs)
