"""Truncated-Fock-space simulator for coherent-state benchmark setups.

Everything lives on the first ``n_max`` Fock levels of one or two bosonic
modes.  The module provides the states (coherent, displaced thermal,
two-mode squeezed vacuum), the Gaussian stage operators (two-mode squeezer,
beamsplitter, additive-noise channel), the diagonal Gaussian observable and
its heterodyne realization, and two independent ways to score a device:

* ``run_setup`` drives the single-setup measurement chain — prepare one
  entangled input, apply the device once, apply the post-processing stages,
  read out one observable;
* ``average_fidelity_oracle`` integrates the average fidelity over the
  Gaussian ensemble of (noisy) coherent states by Gauss–Hermite quadrature.

Their agreement on a device is the claim the toolkit exists to check.

Reduction geometry.  With ``W_c = ∫ d²γ/π |cγ⟩⟨cγ| ⊗ |γ̄⟩⟨γ̄|`` the exact
identity is ``W_c = S_θ† (G_θ ⊗ I) S_θ`` at ``tanh θ = c`` for ``c < 1``
(the Gaussian observable lands on the *amplified* port), and
``W_c = c⁻² · S_θ† (I ⊗ G_θ) S_θ`` at ``tanh θ = 1/c`` for ``c > 1``,
where the ``c⁻²`` Jacobian comes from rescaling the integration variable.
``S_θ = exp[θ(ab − a†b†)]`` is fixed by the displacement covariance
``S_θ (D(α)⊗D(β)) S_θ† = D(α cosh θ − β̄ sinh θ) ⊗ D(β cosh θ − ᾱ sinh θ)``.

Sector storage.  The squeezer and W_c conserve the photon-number difference
p − q, the beamsplitter and the plain-reference pair observable the total
p + q, so each is stored as one dense block per sector (U(1)
charge-conserving block storage) and the readout is scored sector by
sector; W_c is filled from its exact closed form rather than by quadrature.
Dense n_max² × n_max² views exist only for callers that want the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss
from scipy.special import gammaln, pdtrc

from .errors import ContractError, CutoffError, DimensionError, VanishingSuccessError
from .linalg import Operator, PureState
from .model import Channel

DEFAULT_LEAK_TOL = 1e-8
NOISE_DEFICIT_TOL = 1e-5
ORACLE_TAIL_TOL = 1e-6
ORACLE_NODE_TAIL = 1e-4  # per-node Poisson-tail bound for keeping a node
ORACLE_DROP_BUDGET = 1e-5  # total probability mass the oracle may drop
DENSITY_ROUTE_THRESHOLD = 4  # switch once vectors outnumber 4 * n_max**2
NOISE_KRAUS_CHUNK = 64  # Kraus operators per transfer-matrix GEMM
STAGE_DECAY_TOL = 1e-9  # tanh(θ)^(2 n_max) past this, truncated stages lie


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class FockCutoff:
    """Working truncation: Fock levels ``0 .. n_max - 1``.

    Constructions fail with :class:`CutoffError` when their truncation
    leakage (one minus the retained trace) exceeds ``leak_tol``.
    """

    n_max: int
    leak_tol: float = DEFAULT_LEAK_TOL

    def __post_init__(self) -> None:
        if int(self.n_max) <= 1:
            raise ContractError(f"n_max must exceed 1, got {self.n_max}")
        object.__setattr__(self, "n_max", int(self.n_max))
        if not (0 < self.leak_tol < 1):
            raise ContractError(f"leak_tol must lie in (0, 1), got {self.leak_tol}")


@dataclass(frozen=True)
class CvParams:
    """Scenario parameters: gain ``g``, prior inverse variance ``lam``,
    input-noise parameter ``mu`` (``inf`` for pure coherent inputs), and the
    ``conjugate`` flag selecting the phase-conjugation target ``|g·ᾱ⟩``.
    """

    g: float = 1.0
    lam: float = 1.0
    mu: float = math.inf
    conjugate: bool = False

    def __post_init__(self) -> None:
        if self.g < 0:
            raise ContractError(f"gain must be nonnegative, got {self.g}")
        if self.lam <= 0:
            raise ContractError(f"lam must be positive, got {self.lam}")
        if self.mu <= 0:
            raise ContractError(f"mu must be positive, got {self.mu}")

    @property
    def x(self) -> float:
        """Squeezing parameter of the input state that purifies the prior."""
        if math.isinf(self.mu):
            return 1.0 / (1.0 + self.lam)
        return (self.lam + self.mu) / (self.lam + self.mu + self.lam * self.mu)

    @property
    def k(self) -> float:
        if math.isinf(self.mu):
            return math.sqrt(self.x)
        return self.mu * math.sqrt(self.x) / (self.lam + self.mu)

    @property
    def nu(self) -> float:
        if math.isinf(self.mu) or self.g == 0:
            return math.inf
        return (self.lam + self.mu) / self.g**2


@dataclass(frozen=True)
class QuadRule:
    """Gauss–Hermite node counts for the fidelity oracle (per real axis)."""

    nodes: int = 24
    beta_nodes: int = 16

    def __post_init__(self) -> None:
        if self.nodes < 2 or self.beta_nodes < 2:
            raise ContractError("quadrature needs at least 2 nodes per axis")


@dataclass(frozen=True)
class CvSetup:
    """One concrete measurement chain produced by :func:`build_setup`.

    ``theta`` is the two-mode squeezer angle of the fidelity branches,
    ``bs_t`` the beamsplitter transmissivity of the conjugation branch,
    ``g_port`` the mode index (0 = device output, 1 = reference) carrying
    the Gaussian observable, and ``weight`` the scalar multiplying the raw
    expectation value.
    """

    params: CvParams
    cutoff: FockCutoff
    branch: str
    x: float
    weight: float
    theta: float | None = None
    g_port: int | None = None
    bs_t: float | None = None
    stages: tuple[str, ...] = field(default_factory=tuple)

    @property
    def pair_route(self) -> bool:
        """True when the squeezer angle is too steep for the cutoff and the
        exact pair observable is read out instead of the squeezer and the
        Gaussian observable."""
        return self.branch != "conjugation" and not _stage_route_ok(self.theta, self.cutoff.n_max)


# ---------------------------------------------------------------------------
# states


def _coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Kept amplitudes e^{-|alpha|²/2} alpha^n/sqrt(n!), assembled in log space."""
    n = np.arange(n_max)
    if alpha == 0:
        v = np.zeros(n_max, dtype=complex)
        v[0] = 1.0
        return v
    log_mag = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0) - 0.5 * abs(alpha) ** 2
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


def coherent_tail(alpha: complex, n_max: int) -> float:
    """Probability mass of ``|alpha>`` above the kept levels."""
    return float(pdtrc(n_max - 1, abs(alpha) ** 2))


def suggest_cutoff(alpha_max: float, tail_tol: float) -> int:
    """Smallest n_max ≥ 2 whose coherent tail at ``alpha_max`` is ≤ ``tail_tol``."""
    lo, hi = 1, 2  # doubling, then bisection: the answer lies in (lo, hi]
    while coherent_tail(alpha_max, hi) > tail_tol:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if coherent_tail(alpha_max, mid) > tail_tol else (lo, mid)
    return hi


def coherent_state(alpha: complex, cutoff: FockCutoff) -> PureState:
    """Truncated coherent state, normalized after the leakage check."""
    leak = coherent_tail(alpha, cutoff.n_max)
    if leak > cutoff.leak_tol:
        raise CutoffError(
            f"coherent amplitude |alpha|={abs(alpha):.3f} leaks {leak:.2e} "
            f"past n_max={cutoff.n_max}",
            suggested_n_max=suggest_cutoff(abs(alpha), cutoff.leak_tol),
        )
    v = _coherent_amplitudes(alpha, cutoff.n_max)
    return PureState(v / np.linalg.norm(v), (cutoff.n_max,))


def thermal_state(y: float, cutoff: FockCutoff) -> Operator:
    """Geometric thermal state (1-y) y^n |n><n| (mean photon y/(1-y))."""
    if not (0 <= y < 1):
        raise ContractError(f"thermal ratio must lie in [0, 1), got {y}")
    tail = y**cutoff.n_max
    if tail > cutoff.leak_tol:
        raise CutoffError(
            f"thermal ratio y={y} leaks {tail:.2e} past n_max={cutoff.n_max}",
            suggested_n_max=int(math.ceil(math.log(cutoff.leak_tol) / math.log(y))),
        )
    diag = (1 - y) * y ** np.arange(cutoff.n_max)
    return Operator(np.diag(diag.astype(complex)), (cutoff.n_max,))


def displacement_operator(alpha: complex, n_max: int) -> np.ndarray:
    """Matrix of D(alpha) with every kept element exact.

    Uses D = e^{-|a|^2/2} e^{alpha a†} e^{-ᾱ a}: both exponential factors are
    triangular with finitely many terms per element, so no series is cut.
    """
    n = np.arange(n_max)
    if alpha == 0:
        return np.eye(n_max, dtype=complex)
    log_fact = gammaln(n + 1.0)
    m_idx, n_idx = np.meshgrid(n, n, indexing="ij")

    def triangular(z: complex, lower: bool) -> np.ndarray:
        diff = (m_idx - n_idx) if lower else (n_idx - m_idx)
        keep = diff >= 0
        d = np.where(keep, diff, 0)
        big, small = (m_idx, n_idx) if lower else (n_idx, m_idx)
        mag = np.exp(
            d * math.log(abs(z)) + 0.5 * (log_fact[big] - log_fact[small]) - gammaln(d + 1.0)
        )
        phase = np.exp(1j * d * np.angle(z))
        return np.where(keep, mag * phase, 0.0)

    up = triangular(alpha, lower=True)
    down = triangular(-np.conj(alpha), lower=False)
    return math.exp(-abs(alpha) ** 2 / 2) * (up @ down)


def displaced_thermal(alpha: complex, mu: float, cutoff: FockCutoff) -> Operator:
    """Coherent signal ``alpha`` blurred by Gaussian noise of parameter ``mu``.

    Equals D(alpha) · thermal(1/(1+mu)) · D(alpha)†; at ``mu = inf`` this is
    the pure coherent projector.  The returned matrix keeps its truncation
    deficit (trace below one) rather than renormalizing it away.
    """
    if mu <= 0:
        raise ContractError(f"mu must be positive, got {mu}")
    if math.isinf(mu):
        v = coherent_state(alpha, cutoff)
        return v.density()
    th = thermal_state(1.0 / (1.0 + mu), cutoff).matrix
    d_op = displacement_operator(alpha, cutoff.n_max)
    rho = d_op @ th @ d_op.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    deficit = 1.0 - float(np.trace(rho).real)
    if deficit > cutoff.leak_tol:
        mean = abs(alpha) ** 2 + 1.0 / mu
        raise CutoffError(
            f"displaced thermal (|alpha|={abs(alpha):.3f}, mu={mu}) leaks "
            f"{deficit:.2e} past n_max={cutoff.n_max}",
            suggested_n_max=suggest_cutoff(math.sqrt(mean) + 2.0, cutoff.leak_tol),
        )
    return Operator(rho, (cutoff.n_max,))


def tmsv(x: float, cutoff: FockCutoff) -> PureState:
    """Two-mode squeezed vacuum sqrt(1-x) sum x^{n/2} |n,n>."""
    if not (0 <= x < 1):
        raise ContractError(f"tmsv parameter must lie in [0, 1), got {x}")
    leak = x**cutoff.n_max
    if leak > cutoff.leak_tol:
        suggested = int(math.ceil(math.log(cutoff.leak_tol) / math.log(x))) if x > 0 else 2
        raise CutoffError(
            f"tmsv(x={x:.6f}) leaks {leak:.2e} past n_max={cutoff.n_max}",
            suggested_n_max=suggested,
        )
    d = cutoff.n_max
    amp = np.zeros((d, d), dtype=complex)
    coeff = math.sqrt(1 - x) * np.sqrt(x) ** np.arange(d)
    np.fill_diagonal(amp, coeff)
    vec = amp.reshape(-1)
    return PureState(vec / np.linalg.norm(vec), (d, d))


def _tmsv_diagonal(x: float, cutoff: FockCutoff) -> np.ndarray:
    state = tmsv(x, cutoff)
    return state.amplitudes.reshape(cutoff.n_max, cutoff.n_max).diagonal().copy()


# ---------------------------------------------------------------------------
# Gaussian stage unitaries


def _sectors(n_max: int, conserved: str) -> list[np.ndarray]:
    """Flat indices ``p * n_max + q`` of each sector on which the photon-number
    ``difference`` p − q or ``total`` p + q is fixed, by ascending charge;
    each sector is ordered by ascending p."""
    p, q = np.divmod(np.arange(n_max * n_max), n_max)
    charge = p - q if conserved == "difference" else p + q
    return [np.flatnonzero(charge == value) for value in np.unique(charge)]


def _sector_exponential(coupling: np.ndarray, theta: float) -> np.ndarray:
    """exp(theta * (L - L†)) on one sector, L the lowering ladder whose
    ``coupling[i]`` links basis state i to state i - 1."""
    low = np.diag(coupling[1:], k=1)
    w, v = np.linalg.eigh(1j * theta * (low - low.T))
    return (v * np.exp(-1j * w)) @ v.conj().T


def _two_mode_blocks(angle: float, n_max: int, kind: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """``[(flat_idx, block)]`` per conserved sector of the two-mode squeezer
    (difference sectors) or the beamsplitter (total sectors, sector ``a``
    holding p + q = a)."""
    out = []
    for idx in _sectors(n_max, "difference" if kind == "squeezer" else "total"):
        p, q = np.divmod(idx, n_max)
        if kind == "squeezer":
            # descent direction is ab: (p, q) -> (p-1, q-1), coefficient sqrt(pq)
            block = _sector_exponential(np.sqrt(p * q), angle)
        else:
            # descent direction is ab†: (p, q) -> (p-1, q+1); the generator wants
            # the raising combination a†b - ab†, hence the negated angle
            block = _sector_exponential(np.sqrt(p * (q + 1)), -angle)
        out.append((idx, block))
    return out


def _assemble(n_max: int, blocks) -> np.ndarray:
    """Dense n_max² × n_max² matrix of a sector-blocked operator."""
    mat = np.zeros((n_max * n_max, n_max * n_max), dtype=complex)
    for idx, block in blocks:
        mat[np.ix_(idx, idx)] = block
    return mat


def two_mode_squeezer(theta: float, cutoff: FockCutoff) -> Operator:
    """exp[theta (ab - a†b†)] on the truncated two-mode space.

    The generator annihilates photon-number difference, so the exponential
    is taken sector by sector and is exactly unitary.  Sign convention:
    this operator satisfies the displacement covariance quoted in the
    module docstring; its inverse maps |0,0> to the positive-amplitude
    two-mode squeezed vacuum with x = tanh²θ.
    """
    n_max = cutoff.n_max
    blocks = _two_mode_blocks(float(theta), n_max, "squeezer")
    return Operator(_assemble(n_max, blocks), (n_max, n_max))


def beamsplitter(t: float, cutoff: FockCutoff) -> Operator:
    """Number-conserving beamsplitter with transmissivity ``t``.

    Realized as exp[phi (a†b - ab†)] with cos(phi) = sqrt(t); on coherent
    states it acts as |α,β> -> |α cos + β sin, β cos − α sin>, so with
    t = c²/(c²+1) it maps |cγ,γ> to |sqrt(c²+1)·γ, 0>.
    """
    if not (0 <= t <= 1):
        raise ContractError(f"transmissivity must lie in [0, 1], got {t}")
    n_max = cutoff.n_max
    blocks = _two_mode_blocks(math.acos(math.sqrt(t)), n_max, "beamsplitter")
    return Operator(_assemble(n_max, blocks), (n_max, n_max))


# ---------------------------------------------------------------------------
# observables


def gaussian_observable(theta: float, cutoff: FockCutoff) -> Operator:
    """Diagonal observable with eigenvalues tanh(theta)^{2n}."""
    eig = np.tanh(theta) ** (2.0 * np.arange(cutoff.n_max))
    return Operator(np.diag(eig.astype(complex)), (cutoff.n_max,))


def heterodyne_weight(gamma, theta: float):
    """Weight w(γ) = tanh⁻²θ · exp(−|γ|²/sinh²θ) whose heterodyne average
    reproduces the Gaussian observable."""
    g2 = np.abs(np.asarray(gamma)) ** 2
    return np.tanh(theta) ** (-2.0) * np.exp(-g2 / math.sinh(theta) ** 2)


def _pair_blocks(
    c: float, n_max: int, conjugate_reference: bool
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``[(flat_idx, block)]`` of the pair observable, from its closed form
    ``W[(p,q),(p',q')] = c^{p+p'} k! / (s^{k+1} √(p! q! p'! q'!))``, s = 1 + c².

    With the conjugate reference ``k = p + q'`` and W conserves p − q; with
    the plain reference ``k = p + q`` and W conserves p + q.
    """
    log_fact = gammaln(np.arange(2 * n_max) + 1.0)
    log_s = math.log1p(c * c)
    out = []
    for idx in _sectors(n_max, "difference" if conjugate_reference else "total"):
        p, q = np.divmod(idx, n_max)
        half = p * math.log(c) - 0.5 * (log_fact[p] + log_fact[q])
        k = p[:, None] + (q[None, :] if conjugate_reference else q[:, None])
        log_w = half[:, None] + half[None, :] + log_fact[k] - (k + 1) * log_s
        out.append((idx, np.exp(log_w)))
    return out


def scaled_pair_observable(
    c: float, cutoff: FockCutoff, conjugate_reference: bool = True
) -> Operator:
    """W_c = ∫ d²γ/π |cγ⟩⟨cγ| ⊗ |γ*⟩⟨γ*| (fidelity form), or its
    plain-reference variant ∫ d²γ/π |cγ⟩⟨cγ| ⊗ |γ⟩⟨γ| used by the
    conjugation test, assembled densely from its exact sector blocks.
    """
    if c <= 0:
        raise ContractError(f"scale must be positive, got {c}")
    n_max = cutoff.n_max
    blocks = _pair_blocks(c, n_max, conjugate_reference)
    return Operator(_assemble(n_max, blocks), (n_max, n_max))


# ---------------------------------------------------------------------------
# additive-noise channel


class NoiseChannel(Channel):
    """Kraus realization of the Gaussian additive-noise channel.

    ``deficit`` holds 1 - diag(sum K†K): the trace the truncation loses per
    input level.  The Kraus family is closed under the adjoint (the
    displacement grid is symmetric under negation), which makes the map
    self-adjoint as a superoperator.
    """

    def __init__(self, kraus, deficit: np.ndarray, nu: float):
        super().__init__(kraus, trace_preserving=False)
        object.__setattr__(self, "deficit", deficit)
        object.__setattr__(self, "nu", float(nu))


def additive_noise_channel(
    nu: float, cutoff: FockCutoff, radial: int = 12, angular: int = 44
) -> Channel:
    """Gaussian additive noise: rho -> ∫ d²δ/π nu e^{-nu|δ|²} D(δ) rho D(δ)†.

    Discretized as Kraus operators sqrt(w)·D(δ) on a polar grid
    (Gauss–Laguerre radially, uniform angles, even count so the family is
    adjoint-closed), then scaled so the channel is exactly
    trace-nonincreasing.  The per-level trace deficit is kept on the result;
    construction fails if it exceeds the budget on the lower half of the
    kept levels.
    """
    if nu <= 0:
        raise ContractError(f"nu must be positive, got {nu}")
    if math.isinf(nu):
        return Channel.identity(cutoff.n_max)
    if angular % 2:
        raise ContractError("angular node count must be even (adjoint closure)")
    radial_nodes, radial_weights = laggauss(radial)
    # D(r e^{iφ}) = R(φ) D(r) R(φ)† with R(φ) = diag(e^{inφ}): each angle only
    # rephases the matrix elements of one radial displacement
    phases = np.exp(2j * np.pi * np.outer(np.arange(angular), np.arange(cutoff.n_max)) / angular)
    # the angles then sum Σ_φ R D† D R† to ``angular`` times D† D masked to the
    # elements whose level difference the angular rule does not cancel
    levels = np.arange(cutoff.n_max)
    mask = (levels[:, None] - levels[None, :]) % angular == 0
    kraus = []
    total = np.zeros((cutoff.n_max, cutoff.n_max), dtype=complex)
    for u, w in zip(radial_nodes, radial_weights):
        d_r = math.sqrt(w / angular) * displacement_operator(math.sqrt(u / nu), cutoff.n_max)
        kraus.extend(ph[:, None] * d_r * ph.conj()[None, :] for ph in phases)
        total += angular * np.where(mask, d_r.conj().T @ d_r, 0.0)
    top = float(np.max(np.linalg.eigvalsh(0.5 * (total + total.conj().T))).real)
    if top > 1.0:
        kraus = [k / math.sqrt(top) for k in kraus]
        total = total / top
    deficit = 1.0 - np.diag(total).real
    # the deficit is pure displacement truncation (each D is exact on the kept
    # block), so it only needs to vanish where setup states live: guard the
    # lower quarter of the levels, report the full profile on the channel
    guard = max(2, int(cutoff.n_max // 4))
    worst = float(np.max(np.abs(deficit[:guard])))
    if worst > NOISE_DEFICIT_TOL:
        raise CutoffError(
            f"noise channel nu={nu} loses {worst:.2e} trace below level {guard}",
            suggested_n_max=2 * cutoff.n_max,
        )
    return NoiseChannel(kraus, deficit, nu)


# ---------------------------------------------------------------------------
# analytic reference devices


@dataclass(frozen=True)
class AnalyticDevice:
    """A standard coherent-state device with a closed-form fidelity kernel.

    ``kind`` is one of ``identity``, ``attenuator`` (transmissivity
    ``param``), ``vacuum`` (replace by vacuum), ``rescale_mp`` (heterodyne
    measurement followed by re-preparation of ``param · γ``).  These give
    the oracle an exact integrand with no Fock truncation, and
    ``materialize`` produces the matching Kraus channel for the setup run.
    """

    kind: str
    param: float = 1.0

    _KINDS = ("identity", "attenuator", "vacuum", "rescale_mp")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ContractError(f"unknown analytic device kind {self.kind!r}")
        if self.kind == "attenuator" and not (0 <= self.param <= 1):
            raise ContractError(f"attenuator transmissivity {self.param} outside [0, 1]")
        if self.kind == "rescale_mp" and self.param < 0:
            raise ContractError("re-preparation gain must be nonnegative")

    def pure_fidelity(self, u, v):
        """<v| C(|u><u|) |v> for coherent input u and coherent target v."""
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        if self.kind == "identity":
            return np.exp(-np.abs(u - v) ** 2)
        if self.kind == "attenuator":
            return np.exp(-np.abs(math.sqrt(self.param) * u - v) ** 2)
        if self.kind == "vacuum":
            return np.exp(-np.abs(v) ** 2) * np.ones_like(u, dtype=float)
        q = self.param
        return np.exp(-np.abs(q * u - v) ** 2 / (1 + q * q)) / (1 + q * q)

    def materialize(self, cutoff: FockCutoff) -> Channel:
        n_max = cutoff.n_max
        if self.kind == "identity":
            return Channel.identity(n_max)
        if self.kind == "vacuum":
            ks = [np.zeros((n_max, n_max), dtype=complex) for _ in range(n_max)]
            for m, k in enumerate(ks):
                k[0, m] = 1.0
            return Channel(ks, trace_preserving=True)
        if self.kind == "attenuator":
            return Channel(_attenuator_kraus(self.param, n_max), trace_preserving=True)
        return heterodyne_mp_channel(self.param, cutoff)


def identity_device() -> AnalyticDevice:
    return AnalyticDevice("identity")


def attenuator_device(t: float) -> AnalyticDevice:
    return AnalyticDevice("attenuator", t)


def vacuum_device() -> AnalyticDevice:
    return AnalyticDevice("vacuum")


def rescale_mp_device(q: float = 1.0) -> AnalyticDevice:
    return AnalyticDevice("rescale_mp", q)


def _attenuator_kraus(t: float, n_max: int) -> list[np.ndarray]:
    """Photon-loss Kraus set K_m = sum_n sqrt(C(n,m) t^{n-m} (1-t)^m) |n-m><n|."""
    if t == 1.0:
        return [np.eye(n_max, dtype=complex)]
    logs = gammaln(np.arange(n_max) + 1.0)
    out = []
    for m in range(n_max):
        k = np.zeros((n_max, n_max), dtype=complex)
        for n in range(m, n_max):
            log_c = logs[n] - logs[m] - logs[n - m]
            k[n - m, n] = math.exp(
                0.5 * (log_c + (n - m) * math.log(t) + m * math.log(1 - t))
            )
        out.append(k)
    return out


def heterodyne_mp_channel(
    q: float, cutoff: FockCutoff, spacing: float = 0.5, radius: float | None = None
) -> Channel:
    """Measure-and-prepare device: heterodyne POVM on a square grid of
    outcomes, re-prepare the coherent state ``q·γ``.

    The aliasing error of the discretized POVM scales like
    exp(-π²/((1+q²)Δ²)) on pure-state probes — the (1+q²) because the
    re-preparation overlap narrows the effective Gaussian — so the default
    spacing keeps it far below the toolkit tolerances.  The channel is
    trace-nonincreasing: POVM mass outside the grid shows up as success
    probability slightly below one.
    """
    if spacing <= 0 or spacing > 0.7:
        raise ContractError(f"grid spacing must lie in (0, 0.7], got {spacing}")
    n_max = cutoff.n_max
    if radius is None:
        # covers the POVM for Fock levels well past n_max/3: the missing
        # mass at level n is a Poisson(R²) lower tail
        radius = math.sqrt(n_max) + 3.0
    half = int(math.ceil(radius / spacing))
    axis = spacing * np.arange(-half, half + 1)
    gammas = [complex(re, im) for re in axis for im in axis if math.hypot(re, im) <= radius]
    meas = np.array([_coherent_amplitudes(g, n_max) for g in gammas])
    prep = np.array([_coherent_amplitudes(q * g, n_max) for g in gammas])
    cell = spacing * spacing / math.pi
    # the rank-one Kraus operators sqrt(cell) |prep_g><meas_g| give
    # sum K†K = sum_g cell |prep_g|² |meas_g><meas_g|, one GEMM
    weights = cell * np.sum(np.abs(prep) ** 2, axis=1)
    total = meas.T @ (weights[:, None] * meas.conj())
    top = float(np.max(np.linalg.eigvalsh(0.5 * (total + total.conj().T))))
    scale = math.sqrt(cell / max(top, 1.0))
    kraus = [scale * np.outer(p, m.conj()) for p, m in zip(prep, meas)]
    return Channel(kraus, trace_preserving=False)


# ---------------------------------------------------------------------------
# setup construction and execution


def _fidelity_reduction(c: float) -> tuple[float, int, float]:
    """Squeezer angle, observable port, and weight measuring W_c.

    For c < 1 the observable sits on the amplified port at tanh θ = c; for
    c > 1 the ports mirror and the variable change costs a 1/c² Jacobian.
    """
    if abs(c - 1.0) < 1e-12:
        raise ContractError(
            "gain exactly at the squeezer boundary (c = 1) has no finite-angle "
            "reduction; perturb the parameters"
        )
    if c < 1.0:
        return math.atanh(c), 0, 1.0
    return math.atanh(1.0 / c), 1, 1.0 / (c * c)


def build_setup(params: CvParams, cutoff: FockCutoff) -> CvSetup:
    """Select the measurement branch and lay out the stage list."""
    x = params.x
    stages = [f"tmsv(x={x:.6f})", "device"]
    if params.conjugate:
        gk = params.g * params.k
        weight = 1.0 / (gk * gk + 1.0)
        bs_t = gk * gk / (gk * gk + 1.0)
        if math.isfinite(params.nu):
            stages.append(f"noise(nu={params.nu:.6f})")
        stages.append(f"beamsplitter(t={bs_t:.6f})")
        stages.append("photodetector(reference port, score on no-click)")
        return CvSetup(
            params=params,
            cutoff=cutoff,
            branch="conjugation",
            x=x,
            weight=weight,
            bs_t=bs_t,
            stages=tuple(stages),
        )
    if math.isfinite(params.mu):
        branch = "mixed"
        c = params.g * params.k
        stages.append(f"noise(nu={params.nu:.6f})")
    else:
        c = params.g / math.sqrt(params.lam + 1.0)
        branch = "pure_low_gain" if params.g**2 <= params.lam + 1.0 else "pure_high_gain"
    theta, port, weight = _fidelity_reduction(c)
    setup = CvSetup(
        params=params,
        cutoff=cutoff,
        branch=branch,
        x=x,
        weight=weight,
        theta=theta,
        g_port=port,
    )
    if setup.pair_route:
        stages.append(f"pair_observable(c={c:.6f})")
    else:
        stages.append(f"squeezer(theta={theta:.6f})")
        stages.append(f"gaussian_observable(port={'output' if port == 0 else 'reference'})")
    return replace(setup, stages=tuple(stages))


def _expand_noise(
    vectors: np.ndarray, noise: Channel, n_max: int
) -> np.ndarray | None:
    """Apply every noise Kraus to every vector on the first mode; returns
    None when the expansion would outgrow the density-matrix route."""
    count = vectors.shape[0] * len(noise.kraus)
    if count > DENSITY_ROUTE_THRESHOLD * n_max * n_max:
        return None
    jobs = len(noise.kraus)
    stack = np.stack(noise.kraus).reshape(jobs * n_max, n_max)  # [(j, a), m]
    cols = vectors.transpose(1, 0, 2).reshape(n_max, -1)  # [m, (k, r)]
    out = (stack @ cols).reshape(jobs, n_max, -1, n_max)  # [j, a, k, r]
    return out.transpose(0, 2, 1, 3).reshape(-1, n_max, n_max)


def _density(vectors: np.ndarray) -> np.ndarray:
    """Σ_k |v_k⟩⟨v_k| over ``vectors[k, a, r]``, indexed [(a, r), (b, s)]."""
    flat = vectors.reshape(vectors.shape[0], -1)
    return flat.T @ flat.conj()


def _noise_density(rho: np.ndarray, noise: Channel, n_max: int) -> np.ndarray:
    """``(noise ⊗ I)(rho)``; ``rho`` and the result are indexed [(a, r), (b, s)]
    (mode-a ket, reference ket, mode-a bra, reference bra).

    The transfer matrix ``T[(x, y), (a, b)] = Σ_k K_k[x, a] conj(K_k[y, b])``
    is accumulated in [(x, a), (y, b)] order by one GEMM per Kraus chunk and
    applied by one (n², n²) GEMM to ``rho`` regrouped as [(a, b), (r, s)].
    """
    n2 = n_max * n_max
    transfer = np.zeros((n2, n2), dtype=complex)
    for start in range(0, len(noise.kraus), NOISE_KRAUS_CHUNK):
        rows = np.stack(noise.kraus[start : start + NOISE_KRAUS_CHUNK]).reshape(-1, n2)
        transfer += rows.T @ rows.conj()
    transfer = transfer.reshape((n_max,) * 4).transpose(0, 2, 1, 3).reshape(n2, n2)
    out = transfer @ rho.reshape((n_max,) * 4).transpose(0, 2, 1, 3).reshape(n2, n2)
    return out.reshape((n_max,) * 4).transpose(0, 2, 1, 3).reshape(n2, n2)


def _stage_route_ok(theta: float, n_max: int) -> bool:
    """The truncated squeezer tells the truth only while the Gaussian
    observable has decayed away well inside the cutoff; past that the
    spill-over of squeezed high levels is weighted at O(1)."""
    decay = math.tanh(theta) ** 2
    return decay**n_max <= STAGE_DECAY_TOL


def _readout(setup: CvSetup) -> list[tuple[np.ndarray, np.ndarray]]:
    """The branch's pair observable divided by ``setup.weight``, as
    Hermitian blocks ``[(flat_idx, O_d)]`` over the sectors it conserves.

    Conjugation: ``r_a† r_a`` with ``r_a`` the ⟨a, 0| row of beamsplitter
    sector a (the no-click readout).  Squeezer route: ``S_d† diag(g) S_d``
    with the Gaussian eigenvalues taken on the observable's port.  Pair
    route: the closed-form ``W_d / weight``.
    """
    n_max = setup.cutoff.n_max
    if setup.branch == "conjugation":
        blocks = _two_mode_blocks(math.acos(math.sqrt(setup.bs_t)), n_max, "beamsplitter")
        # sector a < n_max holds (p, a − p) for p = 0..a, so ⟨a, 0| is its row a
        return [(idx, np.outer(u[a].conj(), u[a])) for a, (idx, u) in enumerate(blocks[:n_max])]
    if setup.pair_route:
        th = math.tanh(setup.theta)
        c = th if setup.g_port == 0 else 1.0 / th
        return [(idx, w / setup.weight) for idx, w in _pair_blocks(c, n_max, True)]
    g_diag = np.tanh(setup.theta) ** (2.0 * np.arange(n_max))
    out = []
    for idx, s in _two_mode_blocks(setup.theta, n_max, "squeezer"):
        port_level = np.divmod(idx, n_max)[setup.g_port]
        out.append((idx, (s.conj().T * g_diag[port_level]) @ s))
    return out


def _score_vectors(readout, vectors: np.ndarray) -> float:
    """Raw (unweighted, unnormalized) Σ_k ⟨v_k|O|v_k⟩ over a pure decomposition."""
    flat = vectors.reshape(vectors.shape[0], -1)
    total = 0.0
    for idx, o in readout:
        x = flat[:, idx]
        total += float(np.sum((x.conj() @ o) * x).real)
    return total


def _score_density(readout, rho: np.ndarray) -> float:
    """Raw Tr[O ρ] on a density matrix indexed [(a, r), (b, s)]."""
    return sum(float(np.sum(o * rho[np.ix_(idx, idx)].T).real) for idx, o in readout)


def run_setup(
    setup: CvSetup,
    device: Channel,
    p_min: float = 1e-12,
    noise: Channel | None = None,
) -> tuple[float, float]:
    """Score one device through the single-setup measurement chain.

    Returns ``(score, p_succ)``: the weighted observable expectation
    normalized by the device's success probability on the entangled input,
    and that success probability itself.  ``noise`` overrides the
    additive-noise stage (it is rebuilt from the parameters when omitted),
    letting callers share one channel across many runs.

    When the reduction angle is too steep for the cutoff (``tanh θ`` close
    to one) the truncated squeezer stops being trustworthy, and
    :func:`build_setup` routes the score through the closed-form pair
    observable instead.
    """
    cutoff = setup.cutoff
    n_max = cutoff.n_max
    if device.dims_in != n_max or device.dims_out != n_max:
        raise DimensionError(
            f"device acts on dimension {device.dims_in}->{device.dims_out}, "
            f"setup cutoff is {n_max}"
        )
    # built before the n²-sized arrays so that its many small blocks, which
    # live until the end, do not sit above them in the heap and keep it grown
    readout = _readout(setup)
    diag = _tmsv_diagonal(setup.x, cutoff)
    vectors = np.stack(device.kraus)
    vectors *= diag  # K @ diag(psi), columns scaled in place
    p_succ = float(np.vdot(vectors, vectors).real)
    if p_succ < p_min:
        raise VanishingSuccessError(
            f"success probability {p_succ:.3e} below threshold {p_min:.0e}"
        )
    nu = setup.params.nu
    rho = None
    if math.isfinite(nu):
        if noise is None:
            noise = additive_noise_channel(nu, cutoff)
        expanded = _expand_noise(vectors, noise, n_max)
        if expanded is None:
            rho = _noise_density(_density(vectors), noise, n_max)
        else:
            vectors = expanded
    if rho is None and vectors.shape[0] > DENSITY_ROUTE_THRESHOLD * n_max * n_max:
        rho = _density(vectors)
    if rho is not None:
        raw = _score_density(readout, rho)
    else:
        raw = _score_vectors(readout, vectors)
    return setup.weight * raw / p_succ, p_succ


# ---------------------------------------------------------------------------
# quadrature oracle


def amplitude_limit(n_max: int, tail_tol: float = ORACLE_TAIL_TOL) -> float:
    """Largest coherent amplitude the cutoff represents within ``tail_tol``."""
    lo, hi = 0.0, math.sqrt(3.0 * n_max) + 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if coherent_tail(mid, n_max) <= tail_tol:
            lo = mid
        else:
            hi = mid
    return lo


def _gh_complex_nodes(count: int, inv_var: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for ∫ d²z/π inv_var e^{-inv_var |z|²} f(z)."""
    x, w = hermgauss(count)
    scale = 1.0 / math.sqrt(inv_var)
    z = scale * (x[:, None] + 1j * x[None, :])
    ww = (w[:, None] * w[None, :]) / math.pi
    return z.reshape(-1), ww.reshape(-1)


def average_fidelity_oracle(
    device,
    params: CvParams,
    cutoff: FockCutoff,
    quad: QuadRule | None = None,
) -> float:
    """Average fidelity over the Gaussian ensemble by direct quadrature.

    ``device`` may be an :class:`AnalyticDevice` (closed-form integrand, no
    truncation) or a :class:`Channel` of Fock-space Kraus operators, in
    which case quadrature nodes whose coherent amplitudes the cutoff cannot
    hold are dropped — with a hard budget on the probability mass lost.
    Trace-nonincreasing devices are scored conditionally on success.
    """
    quad = quad or QuadRule()
    alphas, w_alpha = _gh_complex_nodes(quad.nodes, params.lam)
    if math.isinf(params.mu):
        betas = np.zeros(1, dtype=complex)
        w_beta = np.ones(1)
    else:
        betas, w_beta = _gh_complex_nodes(quad.beta_nodes, params.mu)
    inputs = (alphas[:, None] + betas[None, :]).reshape(-1)
    target_seed = np.conj(alphas) if params.conjugate else alphas
    targets = (params.g * target_seed)[:, None].repeat(betas.size, axis=1).reshape(-1)
    weights = (w_alpha[:, None] * w_beta[None, :]).reshape(-1)

    if isinstance(device, AnalyticDevice):
        vals = device.pure_fidelity(inputs, targets)
        return float(np.sum(weights * vals) / np.sum(weights))

    if not isinstance(device, Channel):
        raise ContractError(f"cannot score a device of type {type(device).__name__}")
    n_max = cutoff.n_max
    if device.dims_in != n_max or device.dims_out != n_max:
        raise DimensionError(
            f"device dimension {device.dims_in}->{device.dims_out} does not "
            f"match cutoff {n_max}"
        )
    limit = amplitude_limit(n_max, ORACLE_NODE_TAIL)
    need = np.maximum(np.abs(inputs), np.abs(targets))
    keep = need <= limit
    dropped = float(np.sum(weights[~keep]) / np.sum(weights))
    if dropped > ORACLE_DROP_BUDGET:
        worst = float(np.max(need))
        raise CutoffError(
            f"quadrature drops {dropped:.2e} probability mass beyond the "
            f"cutoff's amplitude range {limit:.2f}",
            suggested_n_max=suggest_cutoff(worst, ORACLE_NODE_TAIL),
        )
    inputs, targets, weights = inputs[keep], targets[keep], weights[keep]
    in_mat = np.stack([_coherent_column(z, n_max) for z in inputs], axis=1)
    tg_mat = np.stack([_coherent_column(z, n_max) for z in targets], axis=1)
    num = np.zeros(inputs.size)
    den = np.zeros(inputs.size)
    for k in device.kraus:
        evolved = k @ in_mat
        overlap = np.einsum("ij,ij->j", tg_mat.conj(), evolved)
        num += np.abs(overlap) ** 2
        den += np.einsum("ij,ij->j", evolved.conj(), evolved).real
    return float(np.sum(weights * num) / np.sum(weights * den))


def _coherent_column(z: complex, n_max: int) -> np.ndarray:
    v = _coherent_amplitudes(z, n_max)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# serialization


def setup_to_json(setup: CvSetup) -> dict:
    params = setup.params
    return {
        "branch": setup.branch,
        "g": params.g,
        "lambda": params.lam,
        "mu": None if math.isinf(params.mu) else params.mu,
        "conjugate": params.conjugate,
        "x": setup.x,
        "theta": setup.theta,
        "bs_t": setup.bs_t,
        "g_port": setup.g_port,
        "weight": setup.weight,
        "n_max": setup.cutoff.n_max,
        "leak_tol": setup.cutoff.leak_tol,
        "stages": list(setup.stages),
    }
