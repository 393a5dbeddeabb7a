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
it, with the seesaw as separation oracle.  The master LP over the cuts is
solved as its dual, max sum_i p_i floor_i subject to
sum_i p_i |b_i><b_i| = I and p >= 0, by a dense simplex in numpy whose
ratio test reads a perturbed I, so no vertex is degenerate: adding cuts
adds columns, so each round starts from the last round's basis, and the
start from an informationally complete cut set is feasible as it
stands.  The simplex multipliers are Y; the weights p are a POVM, so the
bracket's lower end is the exact score of an explicit channel; its upper
end is a certified product-range bound at the reference state
``Y / tr Y``.  For group-covariant tests both thresholds collapse to a
closed form ``d * pnr(omega)``, attained by the covariant
measure-and-prepare channel built from the product maximizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericalError, SearchError, SupportError
from .linalg import (
    Operator,
    check_finite,
    frobenius_norm,
    hermitian_eig,
    operator_to_json,
    partial_transpose,
    psd_power_on_support,
    support_rank,
)
from .model import Channel, ProbTest, check_bytes, is_complete, jamiolkowski, score_det_jam

PPT_TOL = 1e-9
COVARIANCE_TOL = 1e-9
IRREDUCIBILITY_TOL = 1e-8
DEFAULT_RESTARTS = 64
DEFAULT_SEED = 7
SUPPORT_TOL = 1e-9
# Every tolerance is relative to one scale per problem, the spectral radius rho
# of Omega (det) or M (product range), or the norm its rule reads: no unit floor.
# Cutting planes stop when no product pair violates Y by more than
# CUT_TOL * rho and give up after CUT_ROUNDS_PER_COORD * d_in**2 rounds.
CUT_TOL = 1e-6
CUT_ROUNDS_PER_COORD = 50
# Seesaw maximizers with |<b|b'>| > 1 - CUT_SAME_TOL make one cut.
CUT_SAME_TOL = 1e-6
# The master LP's simplex is optimal once no reduced cost exceeds
# LP_TOL * rho; it pivots only on entries above LP_PIVOT_TOL and fails
# after LP_PIVOTS_PER_ROW * d_in**2 pivots in one solve.  Its ratio test
# reads I plus LP_SHIFT times a weighted sum of the start basis's columns,
# so no vertex is degenerate.
LP_TOL = 1e-11
LP_PIVOT_TOL = 1e-9
LP_PIVOTS_PER_ROW = 50
LP_SHIFT = 1e-7
# A seesaw start stops on a sweep gaining <= SEESAW_TOL * rho or after
# SEESAW_MAX_ITER sweeps.
SEESAW_TOL = 1e-12
SEESAW_MAX_ITER = 1000
# peak bytes per seesaw start per max(d_out, d_in)**2, measured with
# tracemalloc on product_numerical_range: 29-99 at dims from (2,2) to (16,16)
START_PEAK_PER_D2 = 104
# peak bytes per qubit grid point, measured the same way on pnr_grid_oracle:
# 104 at meshes from 0.05 to 0.005
GRID_PEAK_PER_POINT = 112
# the qubit basis B = (I, σ_x, σ_y, σ_z) / 2 of the grid oracle's closed form
_HALF_PAULIS = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])]) / 2


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

    def __post_init__(self) -> None:
        if self.restarts < 0 or (self.seed is not None and self.seed < 0):
            raise ContractError(f"restarts {self.restarts} and seed {self.seed} must be non-negative")


@dataclass(frozen=True)
class PnrResult:
    """Outcome of a product-numerical-range search.

    ``value`` is the objective at the maximizers, unit vectors on the two
    factors, so it is a lower bound on the true maximum; ``upper`` is a
    certified upper bound, and ``method`` names its certificate (see
    ``_upper_bound``).
    """

    value: float
    maximizer_a: np.ndarray
    maximizer_b: np.ndarray
    upper: float
    method: str
    restarts: int
    iterations: int


@dataclass(frozen=True)
class GridBracket:
    """Certified bracket from the exhaustive grid oracle over ``points`` states."""

    lower: float
    upper: float
    mesh: float
    cover_radius: float
    points: int


@dataclass(frozen=True)
class GroupRep:
    """Paired unitary representation acting on the two test factors.

    Element ``g`` acts as ``U'_g`` on the output factor and ``U_g`` on
    the input factor; ``weights`` is the uniform probability vector over
    elements.
    """

    elements_out: tuple[np.ndarray, ...]
    elements_in: tuple[np.ndarray, ...]
    weights: np.ndarray

    def __init__(self, pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
        if not pairs:
            raise ContractError("group representation needs at least one element")
        outs = []
        ins = []
        for u_out, u_in in pairs:
            outs.append(_check_unitary(np.asarray(u_out, dtype=complex)))
            ins.append(_check_unitary(np.asarray(u_in, dtype=complex)))
            if (outs[-1].shape, ins[-1].shape) != (outs[0].shape, ins[0].shape):
                raise DimensionError(f"group element {len(ins) - 1} differs in shape from the first")
        object.__setattr__(self, "elements_out", tuple(outs))
        object.__setattr__(self, "elements_in", tuple(ins))
        object.__setattr__(self, "weights", np.full(len(pairs), 1.0 / len(pairs)))

    def __len__(self) -> int:
        return len(self.elements_in)

    @property
    def dim_in(self) -> int:
        return self.elements_in[0].shape[0]

    @property
    def dim_out(self) -> int:
        return self.elements_out[0].shape[0]


def _check_unitary(u: np.ndarray) -> np.ndarray:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"group element must be square, got {u.shape}")
    check_finite(u, "group elements")
    if not is_complete(u.conj().T @ u, "a group element's U†U"):
        raise ContractError("group element is not unitary")
    return u


@dataclass(frozen=True)
class BenchmarkReport:
    """Deterministic-benchmark result: threshold value plus diagnostics.
    ``value`` is the bracket's lower end, written as the JSON's ``lower``."""

    value: float
    tau_min: Operator
    upper: float
    method: str
    restarts: int
    converged: bool
    # master LP solves and the cuts in the last one; 0 for the closed form
    cut_rounds: int
    cuts: int
    # the measure-and-prepare channel scored as ``value``; not in the JSON
    strategy: Channel = field(repr=False)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "lower": self.value,
            "upper": self.upper,
            "tau_min": operator_to_json(self.tau_min),
            "method": self.method,
            "restarts": self.restarts,
            "converged": self.converged,
            "cut_rounds": self.cut_rounds,
            "cuts": self.cuts,
        }


# ---------------------------------------------------------------------------
# product numerical range


def _phase_fix(v: np.ndarray) -> np.ndarray:
    """Rows of unit vectors ``v``, each turned so its largest entry is positive."""
    top = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)
    return v / (top / np.abs(top))


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


def _starts(top: np.ndarray, restarts: int, seed: int | None) -> np.ndarray:
    """Input-side starting vectors: the Schmidt vector of M's top eigenvector
    ``top`` (a d_out × d_in matrix), the basis, then ``restarts`` random; a
    batch whose seesaw would pass ``ARRAY_MAX_BYTES`` is refused first."""
    d_in = top.shape[1]
    count = restarts + d_in + 1
    check_bytes(START_PEAK_PER_D2 * max(top.shape) ** 2 * count, f"a seesaw from {count} starts")
    _, _, vh = np.linalg.svd(top)
    z = np.random.default_rng(seed).normal(size=(restarts, 2, d_in))
    return np.vstack(
        [vh[:1].conj(), np.eye(d_in, dtype=complex), z[:, 0] + 1j * z[:, 1]]
    )


def _search(m4: np.ndarray, starts: np.ndarray, scale: float) -> tuple:
    """Alternating top-eigenvector seesaw from every row of ``starts`` at once.

    A start leaves the batch once a sweep gains no more than
    ``SEESAW_TOL * scale``, the problem's spectral radius, over its previous
    sweep, so each sweep is one stacked ``eigh`` per side over the starts
    still running.  Returns each start's value, the objective ``<a b|M|a b>``
    at its phase-fixed pair ``(a, b)``, those pairs, best first, and the
    total sweep count.
    """
    d_out, d_in = m4.shape[:2]
    t = _pair_matrix(m4)
    b = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    a = np.zeros((len(b), d_out), dtype=complex)
    last = np.full(len(b), -np.inf)
    sweeps = 0
    active = np.arange(len(b))
    for _ in range(SEESAW_MAX_ITER):
        n = active.size
        _, aa = _top_eigvec((_outer_rows(b[active]) @ t).reshape(n, d_out, d_out))
        val, bb = _top_eigvec((_outer_rows(aa) @ t.T).reshape(n, d_in, d_in))
        a[active], b[active] = aa, bb
        sweeps += n
        gained = val > last[active] + SEESAW_TOL * scale
        last[active] = val
        active = active[gained]
        if not active.size:
            break
    a, b = _phase_fix(a), _phase_fix(b)
    vals = np.sum(_outer_rows(a) * (_outer_rows(b) @ t), axis=1).real
    order = np.argsort(-vals, kind="stable")
    return vals[order], a[order], b[order], sweeps


def product_numerical_range(m: Operator, cfg: PnrConfig | None = None) -> PnrResult:
    """Maximum of ``<a⊗b|M|a⊗b>`` over product unit vectors.

    Runs ``_search`` from structured and random starting points.  The
    reported value is the objective at the returned maximizers, so it is
    attained and a true lower bound; ``upper`` is ``_upper_bound``'s
    certificate.
    """
    eigs, vecs = hermitian_eig(m)
    cfg = cfg or PnrConfig()
    starts = _starts(vecs[:, -1].reshape(m.dims), cfg.restarts, cfg.seed)
    vals, a, b, sweeps = _search(m.matrix.reshape(m.dims * 2), starts, np.abs(eigs).max())
    value = float(vals[0])
    upper, method = _upper_bound(m, float(eigs[-1]), value)
    return PnrResult(
        value=value,
        maximizer_a=a[0],
        maximizer_b=b[0],
        # roundoff in either bound can undercut a certified-feasible value
        # by ~1e-15; never report an inverted bracket
        upper=max(upper, value),
        method=method,
        restarts=len(starts),
        iterations=sweeps,
    )


def _upper_bound(m: Operator, top: float, value: float) -> tuple[float, str]:
    """Certified upper bound on pnr(M) and the name of its certificate: the
    largest eigenvalue ``top`` of ``M`` (``spectral``; a product maximum can
    never exceed it), or the closed-form grid oracle's bound (``grid``) when
    both factors are at most qubits and it lies strictly below ``top``.
    That bound never undercuts ``value``, an attained lower end (the search
    value), so the grid runs only while ``value < top``."""
    if max(m.dims) <= 2 and value < top:
        grid = pnr_grid_oracle(m).upper
        if grid < top:
            return grid, "grid"
    return top, "spectral"


def pnr_grid_oracle(m: Operator, mesh: float = 0.05) -> GridBracket:
    """Certified bracket on the product numerical range when both factors
    are at most qubits, by exhaustion of the smaller one (the input on two
    qubits); past that ``DimensionError``, and ``CutoffError`` for a grid
    past ``ARRAY_MAX_BYTES``, before either is built.

    C^1 has one state up to phase, so its grid is exact.  On C^2 the Bloch
    angles run over [0, pi] × [0, 2 pi) in steps of ``mesh``; the state
    (cos θ/2, e^{iφ} sin θ/2) moves at 1/2 in θ and at most 1 in φ, so the
    covering radius in 2-norm is mesh · (1/2 + 1) / 2.  With B = (I, σ_x,
    σ_y, σ_z) / 2 on a qubit and (1) on C^1, a state's projector is
    Σ_j n_j B_j, n = (1, its Bloch vector), so the block it leaves on the
    other factor is Σ_k c_k σ_k (σ_0 = I), c_k = Σ_j n_j tr(M (B_k ⊗ B_j)),
    whose top eigenvalue is c_0 + |(c_1, c_2, c_3)|.  The lower bound is the
    best grid point; the upper adds the Lipschitz constant 2*||M||_2 of the
    objective in the gridded vector times the covering radius.
    """
    if max(m.dims) > 2:
        raise DimensionError(f"grid oracle needs both factors at most qubits, got dims {m.dims}")
    if not m.is_hermitian():
        raise ContractError("grid oracle needs a Hermitian operator")
    if not 0 < mesh <= 0.5:
        raise ContractError(f"mesh must lie in (0, 0.5], got {mesh}")
    d_out, d_in = m.dims
    # table[j, k] = tr(M (B_k ⊗ B_j)), j on the gridded factor; n is a column of bloch
    basis = [_HALF_PAULIS if d == 2 else np.ones((1, 1, 1)) for d in m.dims]
    table = np.einsum("xrys,kyx,jsr->jk", m.matrix.reshape(d_out, d_in, d_out, d_in), *basis).real
    if d_in > d_out:
        table, d_in = table.T, d_out  # grid the output factor instead
    bloch, radius = np.ones((1, 1)), 0.0
    if d_in == 2:
        points = np.ceil((np.pi + mesh) / mesh) * np.ceil(2 * np.pi / mesh)
        check_bytes(GRID_PEAK_PER_POINT * points, f"a mesh-{mesh} grid of {points:.0f} points")
        theta, phi = np.arange(0.0, np.pi + mesh, mesh)[:, None], np.arange(0.0, 2 * np.pi, mesh)
        bloch = np.stack(np.broadcast_arrays(
            1.0, np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)
        )).reshape(4, -1)
        radius = 0.5 * mesh * (0.5 + 1.0)
    # an exact power-of-two scale keeps the norm's squares from over- or underflowing
    exp = np.frexp(np.abs(table).max())[1]
    c = np.ldexp(table, -exp).T @ bloch
    grid_max = float(np.ldexp(np.max(c[0] + np.linalg.norm(c[1:], axis=0)), exp))
    spectral = float(np.max(np.abs(np.linalg.eigvalsh(m.matrix))))
    return GridBracket(
        lower=grid_max,
        upper=grid_max + 2.0 * spectral * radius,
        mesh=mesh,
        cover_radius=radius,
        points=bloch.shape[1],
    )


# ---------------------------------------------------------------------------
# sandwiched objectives and benchmarks


def _sandwich(omega: Operator, tau: np.ndarray) -> Operator:
    d_out, d_in = omega.dims
    root = psd_power_on_support(tau, -0.5)
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
    resid = frobenius_norm(leak)
    if resid > SUPPORT_TOL * frobenius_norm(op.matrix):
        _, vecs = np.linalg.eigh(leak @ leak.conj().T)
        raise SupportError(
            "performance operator acts outside the reference state's support "
            f"(residual {resid:.3e})",
            direction=vecs[:, -1],
        )


def _pt_low(omega: Operator) -> tuple[float, float]:
    """Smallest eigenvalue of the partial transpose on the input factor, and
    the PPT floor ``-PPT_TOL`` times that partial transpose's spectral radius."""
    eigs = hermitian_eig(partial_transpose(omega, 1))[0]
    return float(eigs[0]), -PPT_TOL * float(max(-eigs[0], eigs[-1]))


def check_ppt(omega: Operator) -> float:
    """Smallest eigenvalue of the partial transpose on the input factor;
    raises ``ContractError`` when it lies below the PPT floor (``_pt_low``)."""
    low, floor = _pt_low(omega)
    if low < floor:
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


def _ic_cuts(d: int) -> np.ndarray:
    """The d² unit vectors e_j, (e_j + e_k)/√2 and (e_j + i e_k)/√2, j < k,
    whose projectors span the d×d Hermitian matrices; the basis comes first."""
    e = np.eye(d, dtype=complex)
    j, k = np.triu_indices(d, 1)
    return np.vstack([e, (e[j] + e[k]) / np.sqrt(2), (e[j] + 1j * e[k]) / np.sqrt(2)])


def _master_lp(
    cuts: np.ndarray, floors: np.ndarray, basic: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dual of the cut LP, max Σ p_i floor_i s.t. Σ p_i |b_i><b_i| = I, p >= 0.

    A dense primal simplex over the cut vectors ``b_i`` (rows of ``cuts``)
    from the feasible basis ``basic``, d² column indices, optimal to
    ``LP_TOL * scale``, ``scale`` being omega's spectral radius.  Dantzig's
    rule picks the entering cut and the ratio test on a perturbed I
    (``LP_SHIFT``; Charnes 1952) the leaving one, so every pivot gains.
    Returns the optimal Y (the simplex multipliers: <b_i|Y|b_i> >= floor_i
    for every cut, tr Y = Σ p_i floor_i), the weights p at the unperturbed
    I and the optimal basis, which stays feasible when cuts are appended.
    Raises ``NumericalError`` when ``LP_PIVOTS_PER_ROW * d²`` pivots do not
    reach an optimum.
    """
    herm = _hermitian_basis(cuts.shape[1])
    a = np.einsum("ir,krs,is->ki", cuts.conj(), herm, cuts).real
    rhs = np.trace(herm, axis1=1, axis2=2).real
    n = len(basic)
    shifted = rhs + LP_SHIFT * a[:, :n] @ (1.0 + np.arange(n) / n)
    tol = LP_TOL * scale
    budget = LP_PIVOTS_PER_ROW * n
    basic = basic.copy()
    for pivots in range(budget + 1):
        inv = np.linalg.inv(a[:, basic])
        y = floors[basic] @ inv
        reduced = floors - y @ a
        reduced[basic] = 0.0
        enter = np.argmax(reduced)
        if reduced[enter] <= tol:
            p = np.zeros(len(floors))
            p[basic] = np.maximum(inv @ rhs, 0.0)
            return np.tensordot(y, herm, axes=1), p, basic
        if pivots == budget:
            raise NumericalError(f"master LP failed: no optimum after {budget} pivots")
        step = inv @ a[:, enter]
        rows = np.flatnonzero(step > LP_PIVOT_TOL)
        if not rows.size:
            raise NumericalError(f"master LP failed: cut {enter} has no pivot row")
        ratio = np.maximum(inv[rows] @ shifted, 0.0) / step[rows]
        basic[rows[np.argmin(ratio)]] = enter


def _cut_floors(m4: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each input vector b: max_a <a b|Omega|a b> and its maximizer a."""
    d_out = m4.shape[0]
    conditioned = (_outer_rows(cuts) @ _pair_matrix(m4)).reshape(-1, d_out, d_out)
    return _top_eigvec(conditioned)


def _violated_cuts(m4: np.ndarray, starts: np.ndarray, scale: float) -> tuple:
    """Seesaw on ``m4`` from every start: the distinct input maximizers whose
    value exceeds ``CUT_TOL * scale``, largest first, and the largest value.
    Two maximizers are the same when |<b|b'>| > 1 - CUT_SAME_TOL."""
    vals, _, b, _ = _search(m4, starts, scale)
    b = b[vals > CUT_TOL * scale]
    overlap = np.tril(np.abs(b.conj() @ b.T), -1)
    return b[~np.any(overlap > 1.0 - CUT_SAME_TOL, axis=1)], float(vals[0])


def det_benchmark(
    omega: Operator,
    cfg: PnrConfig | None = None,
    rep: GroupRep | None = None,
) -> BenchmarkReport:
    """Deterministic measure-and-prepare threshold for a performance operator.

    Solves the module docstring's LP by Kelley cutting planes from an
    informationally complete set of d_in² cuts.  Each round re-solves the
    master LP from the last round's basis, then adds every distinct violated
    maximizer of a seesaw started from a few structured vectors and the last
    round's cuts; only when those find nothing does the full ``cfg`` start
    set run, and the loop stops once it too finds no product pair violating
    Y by more than ``CUT_TOL * rho``, rho being omega's spectral radius and
    every tolerance's scale: if the seesaw finds every violated cut, ``value``
    lies within ``d_in * CUT_TOL * rho`` of the threshold at every scale of
    omega.  ``value``, the bracket's lower end, is the exact score of
    ``strategy``, the channel the LP duals define; ``upper`` is
    ``_upper_bound`` on omega sandwiched at ``tau_min`` (Y / tr Y, spectrum
    floored), which runs no search.  ``omega`` must be PPT on the
    input factor (``ppt_offset`` shifts it there).  A covariant,
    irreducibly-represented group selects the closed form
    ``d_in * pnr(omega)`` instead (valid for any Hermitian omega): one
    product-range search, whose maximizers build the covariant
    measure-and-prepare ``strategy`` that attains it.  Raises
    ``SearchError`` with the last round's report when the cut budget runs
    out, and ``NumericalError`` when a master LP finds no optimum.
    """
    cfg = cfg or PnrConfig()
    d_out, d_in = omega.dims

    if rep is not None:
        if not check_covariance(omega, rep):
            raise ContractError("performance operator is not covariant for this group")
        _check_irreducible(rep)
        pnr = product_numerical_range(omega, cfg)
        a, b = pnr.maximizer_a, pnr.maximizer_b
        # Measure the covariant POVM {d_in w_g U_g|b><b|U_g†} and prepare
        # U'_g|a>, one Kraus operator per element; irreducibility of the
        # input representation makes the POVM complete.
        strategy = Channel([
            np.sqrt(d_in * w) * np.outer(u_out @ a, (u_in @ b).conj())
            for w, u_out, u_in in zip(rep.weights, rep.elements_out, rep.elements_in)
        ])
        tau = Operator(np.eye(d_in) / d_in, (d_in,))
        score = score_det_jam(omega, jamiolkowski(strategy))
        return _det_report(strategy, score, d_in * pnr.upper, tau_min=tau,
                           method="closed_form", restarts=pnr.restarts, converged=True,
                           cut_rounds=0, cuts=0)

    check_ppt(omega)
    scale = np.abs(np.linalg.eigvalsh(omega.matrix)).max()
    m4 = omega.matrix.reshape(d_out, d_in, d_out, d_in)
    cuts = _ic_cuts(d_in)
    floors, preps = _cut_floors(m4, cuts)
    # p = 1 on the basis vectors is a vertex: the start needs no artificials
    basic = np.arange(d_in * d_in)
    fresh = np.empty((0, d_in), dtype=complex)
    rounds = CUT_ROUNDS_PER_COORD * d_in * d_in
    for cut_rounds in range(1, rounds + 1):
        y, p, basic = _master_lp(cuts, floors, basic, scale)
        gap = omega.matrix - np.kron(np.eye(d_out), y)
        top = _top_eigvec(gap)[1].reshape(d_out, d_in)
        gap4 = gap.reshape(m4.shape)
        starts = np.vstack([_starts(top, 0, cfg.seed), fresh])
        fresh, cut = _violated_cuts(gap4, starts, scale)
        if not fresh.size:
            # convergence is certified by the full start set alone
            fresh, cut = _violated_cuts(gap4, _starts(top, cfg.restarts, cfg.seed), scale)
        converged = not fresh.size
        if converged:
            break
        cuts = np.vstack([cuts, fresh])
        new_floors, new_preps = _cut_floors(m4, fresh)
        floors, preps = np.concatenate([floors, new_floors]), np.vstack([preps, new_preps])

    # The weights p_i make the POVM p_i |b_i><b_i|, each outcome preparing
    # the top eigenvector of <b_i|omega|b_i>: one Kraus operator
    # |prep_i><meas_i| per outcome.  S^-1/2 absorbs the simplex's residual in
    # S = sum_i p_i |b_i><b_i| = I; Channel refuses weights that do not span
    # the input space.
    keep = np.flatnonzero(p > 0)
    weighted = cuts[keep] * np.sqrt(p[keep])[:, None]
    root = psd_power_on_support(weighted.T @ weighted.conj(), -0.5)
    meas = weighted @ root.T
    strategy = Channel(preps[keep][:, :, None] * meas.conj()[:, None, :])

    # Y is singular, up to the LP's tolerance, on input directions omega does not
    # reach; any full-rank tau gives a valid upper bound, I / d_in where tr Y = 0
    w, v = np.linalg.eigh(y)
    w = np.maximum(w, CUT_TOL * w[-1])
    tau = (v * (w / w.sum())) @ v.conj().T if w.sum() > 0 else np.eye(d_in) / d_in
    sandwiched = _sandwich(omega, tau)
    # the strategy's score is at most pnr(sandwiched): an attained lower end
    score = score_det_jam(omega, jamiolkowski(strategy))
    upper, method = _upper_bound(sandwiched, float(hermitian_eig(sandwiched)[0][-1]), score)
    # restarts counts the start set that confirmed convergence
    report = _det_report(strategy, score, upper, tau_min=Operator(tau, (d_in,)),
                         method=method, restarts=1 + d_in + cfg.restarts,
                         converged=converged, cut_rounds=cut_rounds, cuts=len(p))
    if not converged:
        raise SearchError(
            f"cutting planes still cut {cut:.3e} after {cut_rounds} rounds "
            f"and {len(p)} cuts",
            best=report,
        )
    return report


def _det_report(strategy: Channel, score: float, upper: float, **fields) -> BenchmarkReport:
    """The report of either det path, with its remaining ``fields``: ``value``
    is ``score``, the exact score of ``strategy``, and roundoff in ``upper``
    (~1e-15) never inverts the bracket."""
    return BenchmarkReport(value=score, upper=max(upper, score), strategy=strategy, **fields)


def check_covariance(omega: Operator, rep: GroupRep) -> bool:
    """True iff omega commutes with every ``U'_g ⊗ U_g`` of the representation."""
    d_out, d_in = omega.dims
    if rep.dim_out != d_out or rep.dim_in != d_in:
        raise DimensionError(
            f"representation dims ({rep.dim_out}, {rep.dim_in}) do not match "
            f"operator dims {omega.dims}"
        )
    m = omega.matrix
    pairs = (np.kron(u_out, u_in) for u_out, u_in in zip(rep.elements_out, rep.elements_in))
    worst = max(frobenius_norm(m @ u - u @ m) for u in pairs)
    return worst <= COVARIANCE_TOL * frobenius_norm(m)


def _check_irreducible(rep: GroupRep) -> None:
    """Refuse an input representation whose twirl does not depolarize.

    The twirl's superoperator T = Σ_g w_g U_g ⊗ conj(U_g) fixes vec(I) on
    both sides, so ||T||_F² = 1 + ||T on vec(I)'s complement||_F², and
    ||T||_F² is the frame potential Σ_gh w_g w_h |tr U_g†U_h|²: it is 1
    exactly when the twirl sends every operator to a multiple of I.
    """
    u = np.stack(rep.elements_in).reshape(len(rep), -1)
    frame = rep.weights @ np.abs(u.conj() @ u.T) ** 2 @ rep.weights
    if frame > 1.0 + IRREDUCIBILITY_TOL:
        raise ContractError(
            f"input representation is reducible: frame potential {frame:.6g} "
            "exceeds 1, so its twirl does not depolarize"
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


def ppt_offset(omega: Operator) -> tuple[Operator, float]:
    """Shift a Hermitian operator by the least multiple of I that makes it PPT:
    -lambda_min of its partial transpose on the input factor when that lies
    below the PPT floor (``_pt_low``), else 0, so ``check_ppt`` passes on the
    shifted operator.  Returns it and the offset.  A trace-preserving device's
    raw score against a test observable is its shifted score minus the offset;
    a performance operator's benchmark shifts by ``offset * d_in``."""
    low, floor = _pt_low(omega)
    offset = -low if low < floor else 0.0
    shifted = Operator(omega.matrix + offset * np.eye(omega.side), omega.dims)
    return shifted, offset
