"""Truncated-Fock-space simulator for coherent-state benchmark setups.

Everything lives on the first ``n_max`` Fock levels of one or two bosonic
modes.  The module provides the states (coherent, displaced thermal,
two-mode squeezed vacuum), the Gaussian stage operators (two-mode squeezer,
beamsplitter, additive-noise channel), the diagonal Gaussian observable and
its heterodyne realization, and two independent ways to score a device:

* ``run_setup`` (a Kraus ``Channel``) and ``run_analytic`` (an
  ``AnalyticDevice``) drive the single-setup measurement chain — prepare
  one entangled input, apply the device once, apply the post-processing
  stages, read out one observable;
* ``average_fidelity_oracle`` gives the exact average fidelity over the
  Gaussian ensemble of (noisy) coherent states: in closed form for an
  ``AnalyticDevice``, which maps every coherent input to a displaced
  thermal state, and for a Kraus ``Channel`` as a finite Fock series, read
  from the device's per-charge arrays against the coherent-state expansion.

Their agreement on a device is the claim the toolkit exists to check.

Reduction geometry.  With ``W_c = ∫ d²γ/π |cγ⟩⟨cγ| ⊗ |γ̄⟩⟨γ̄|`` the exact
identity is ``W_c = S_θ† (G_θ ⊗ I) S_θ`` at ``tanh θ = c`` for ``c < 1``
(the Gaussian observable lands on the *amplified* port), and
``W_c = c⁻² · S_θ† (I ⊗ G_θ) S_θ`` at ``tanh θ = 1/c`` for ``c > 1``,
where the ``c⁻²`` Jacobian comes from rescaling the integration variable.
``S_θ = exp[θ(ab − a†b†)]`` is fixed by the displacement covariance
``S_θ (D(α)⊗D(β)) S_θ† = D(α cosh θ − β̄ sinh θ) ⊗ D(β cosh θ − ᾱ sinh θ)``.
The setup's squeezer and homodyne stages therefore measure ``W_c``; the
conjugation test's beamsplitter and no-click photodetector measure its
plain-reference form.  ``run_setup`` reads every branch by one rule: the
exact compression onto the n_max-level input of its closed-form observable
at the one scale ``c = g·k``, every sector included; the dense squeezer,
beamsplitter and Gaussian observable remain as references.

Sector storage.  W_c conserves the photon-number difference p − q, the
beamsplitter the total p + q, so each is stored as one dense block per
sector (U(1) charge-conserving block storage) and the readout is scored
sector by sector.  Dense n_max² × n_max² views exist only for callers
that want the matrix.

Gaussian channels.  Every reference device and the additive noise ν is a
quantum-limited amplifier of gain G after a pure-loss attenuator η
(Caruso, Giovannetti, Holevo, NJP 8, 310 (2006)); the noise is
G = 1 + 1/ν after η = 1/G.  The amplifier is the attenuator's dual, so both
stages come from one closed form, ``_attenuator_amplitudes``.  Both stages
are phase covariant, so the channel acts on each mode-a charge δ (the
bra-ket level difference) through one n_max × n_max transfer matrix,
``_gaussian_transfer``: n_max³ numbers in all.  Each Kraus operator of a
stage shifts the photon number by its own fixed amount, so a stage's
transfer is read from its n_max × n_max amplitude matrix, the entry-wise
sum of its Kraus set, with no Kraus stack built.  The noise's transfer is
folded onto the readout, and a reference device is scored from its own,
sector by sector, against the same readout; the conjugation branch reads
the device's charge 0 alone.  A Kraus ``Channel`` is read the same way from
``_charge_transfer`` of its Kraus array: every charge of T, or of the
charge-reversing A under conjugation.  ``_gaussian_kraus`` gives the exact
real Kraus set (n_max⁴ numbers), which only ``AnalyticDevice.materialize``
exports as a ``Channel``.

Closed forms in log space.  Coherent amplitudes, the displacement, W_c and
the attenuator's amplitude matrix are assembled in log space from one table
of ln k! built with ``math.lgamma`` (``_log_factorials``), and the coherent
Poisson tail is a direct sum, so the module needs numpy alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, CutoffError, DimensionError
from .linalg import Operator, PureState
from .model import ARRAY_MAX_BYTES, Channel, check_bytes, check_success

DEFAULT_LEAK_TOL = 1e-8
TAIL_SUM_TOL = 1e-17  # coherent_tail stops at a term this small against the sum
UNIT_C_TOL = 1e-12  # |c - 1| below this is the c = 1 setup, which has no squeezer
NOISE_DEFICIT_TOL = 1e-5
SERIES_BYTES = 40  # peak bytes per n_max³ of the Kraus-device series (~34 measured)
FOLD_BYTES = 64  # peak bytes per n_max³ of the built-in noise fold (61–62 measured)


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
        for name in ("g", "lam", "mu"):
            if math.isnan(getattr(self, name)):
                raise ContractError(f"{name} must be a number, got nan")
        if not (0 <= self.g and self.g * self.g < math.inf):
            raise ContractError(
                f"gain must be finite and nonnegative, with a finite square, got {self.g}"
            )
        if not 0 < self.lam < math.inf:
            raise ContractError(f"lam must be positive and finite, got {self.lam}")
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
    def c(self) -> float:
        """Scale of the pair observable every branch reads out."""
        return self.g * self.k

    @property
    def nu(self) -> float:
        g2 = self.g * self.g  # zero also when a subnormal gain underflows
        if math.isinf(self.mu) or g2 == 0:
            return math.inf
        return (self.lam + self.mu) / g2


@dataclass(frozen=True)
class OracleResult:
    """The exact reference and how it was reached: ``method`` is
    ``closed_form`` for an :class:`AnalyticDevice` and ``fock_series`` for a
    Kraus :class:`Channel`; neither places a node or carries an error
    estimate."""

    value: float
    method: str


@dataclass(frozen=True)
class CvSetup:
    """The measurement chain of a scenario on a cutoff, built only as
    ``CvSetup(params, cutoff)``.

    Every other field is derived from ``params`` and read-only: none can be
    passed or set by ``dataclasses.replace``, and ``replace(setup, params=p)``
    derives them again.  ``x`` is the tmsv parameter, ``theta`` and
    ``g_port`` (0 = device output, 1 = reference) the squeezer angle and the
    Gaussian observable's port of a fidelity branch (none at c = 1; module
    docstring), ``bs_t`` the beamsplitter transmissivity of the conjugation
    branch, and ``weight`` the scalar multiplying the raw expectation value.
    They describe the optical setup only: every branch is scored with the
    closed-form pair observable it measures.
    """

    params: CvParams
    cutoff: FockCutoff
    branch: str = field(init=False)
    x: float = field(init=False)
    weight: float = field(init=False)
    theta: float | None = field(init=False)
    g_port: int | None = field(init=False)
    bs_t: float | None = field(init=False)
    stages: tuple[str, ...] = field(init=False)

    def __init__(self, params: CvParams, cutoff: FockCutoff):
        c, theta, port, bs_t, weight = params.c, None, None, None, 1.0
        stages = [f"tmsv(x={params.x:.6g})", "device"]
        if math.isfinite(params.nu):
            stages.append(f"noise(nu={params.nu:.6g})")
        if params.conjugate:
            branch, weight, bs_t = "conjugation", 1.0 / (c * c + 1.0), c * c / (c * c + 1.0)
            stages.append(f"beamsplitter(t={bs_t:.6g})")
            stages.append("photodetector(reference port, score on no-click)")
        else:
            pure = "pure_low_gain" if c <= 1.0 else "pure_high_gain"
            branch = "mixed" if math.isfinite(params.mu) else pure
            if abs(c - 1.0) >= UNIT_C_TOL:  # no finite squeezing reaches c = 1
                if c < 1.0:
                    theta, port = math.atanh(c), 0
                else:
                    theta, port, weight = math.atanh(1.0 / c), 1, 1.0 / (c * c)
            stages.append(f"pair_observable(c={c:.6g})")
        vars(self).update(  # frozen: every field is written once, here
            params=params, cutoff=cutoff, branch=branch, x=params.x, weight=weight,
            theta=theta, g_port=port, bs_t=bs_t, stages=tuple(stages),
        )


# ---------------------------------------------------------------------------
# states


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0 .. n − 1, each from ``math.lgamma`` (a cumulative log
    sum would gather rounding error as k grows)."""
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


def _xlogy(x, y) -> np.ndarray:
    """x · ln y elementwise, with 0 · ln 0 = 0 so that y⁰ = 1 at y = 0 too."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return x * np.log(np.where(x == 0, 1.0, y))


def _coherent_amplitudes(alpha, n_max: int) -> np.ndarray:
    """Kept amplitudes e^{-|α|²/2} α^n/sqrt(n!) of each amplitude in ``alpha``
    along a new last axis, assembled in log space; ``_xlogy`` keeps 0⁰ = 1."""
    n = np.arange(n_max)
    alpha = np.asarray(alpha, dtype=complex)[..., None]
    mag = np.abs(alpha)
    out = np.exp(1j * n * np.angle(alpha))
    out *= np.exp(_xlogy(n, mag) - 0.5 * _log_factorials(n_max) - 0.5 * mag**2)
    return out


def _log_poisson(j: int, mu: float) -> float:
    """ln(e^{−μ} μ^j / j!).  Past small j it is j·ln(μ/j) + (j − μ) − r(j),
    with the Stirling remainder r(j) = ln j! − (j ln j − j) from its series,
    so the large parts j ln μ, μ and ln j! are never formed and cancelled."""
    if j < 30:
        return j * math.log(mu) - mu - math.lgamma(j + 1.0)
    # the first omitted series term, 1/(1188 j⁹), is below 5e-17 from j = 30
    inv, inv2 = 1.0 / j, 1.0 / (j * j)
    series = inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680)))
    remainder = 0.5 * math.log(2.0 * math.pi * j) + series
    # near μ = j the difference μ − j is exact (Sterbenz) and log1p keeps the
    # small logarithm's relative precision; away from it the quotient does
    ratio = mu * inv
    log_ratio = math.log1p((mu - j) * inv) if 0.5 <= ratio <= 2.0 else math.log(ratio)
    return j * log_ratio + (j - mu) - remainder


def coherent_tail(alpha: complex, n_max: int) -> float:
    """Probability mass of ``|alpha>`` above the kept levels, P[X ≥ n_max] for
    X ~ Poisson(|α|²): a direct sum started in log space at the boundary and
    stepped by neighbour ratios away from the mean, so its terms fall (one
    minus the head, summed downward, when n_max ≤ μ)."""
    mu = abs(alpha) ** 2
    if mu == 0 or n_max <= 0:
        return float(n_max <= 0)
    upward = n_max > mu
    j = n_max if upward else n_max - 1
    term = math.exp(_log_poisson(j, mu))
    total = 0.0
    while term > TAIL_SUM_TOL * total:
        total += term
        j += 1 if upward else -1
        term *= mu / j if upward else (j + 1) / mu
    return total if upward else 1.0 - total


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


def _check_geometric(ratio: float, cutoff: FockCutoff, name: str) -> None:
    """Refuse a Fock distribution whose weights fall as ``ratio**n``: with
    :class:`ContractError` unless ``ratio`` lies in [0, 1], with
    :class:`CutoffError` when its mass past the cutoff, ``ratio**n_max``,
    exceeds ``leak_tol``.  A ratio that rounded to 1 leaks everything, and no
    cutoff holds it."""
    if not (0 <= ratio <= 1):
        raise ContractError(f"{name} must lie in [0, 1), got {ratio}")
    leak = ratio**cutoff.n_max
    if leak > cutoff.leak_tol:
        fit = None if ratio == 1 else math.ceil(math.log(cutoff.leak_tol) / math.log(ratio))
        raise CutoffError(
            f"{name}={ratio} leaks {leak:.2e} past n_max={cutoff.n_max}", suggested_n_max=fit
        )


def thermal_state(y: float, cutoff: FockCutoff) -> Operator:
    """Geometric thermal state (1-y) y^n |n><n| (mean photon y/(1-y))."""
    _check_geometric(y, cutoff, "thermal ratio y")
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
    log_fact = _log_factorials(n_max)
    m_idx, n_idx = np.meshgrid(n, n, indexing="ij")

    def triangular(z: complex, lower: bool) -> np.ndarray:
        diff = (m_idx - n_idx) if lower else (n_idx - m_idx)
        keep = diff >= 0
        d = np.where(keep, diff, 0)
        big, small = (m_idx, n_idx) if lower else (n_idx, m_idx)
        mag = np.exp(
            d * math.log(abs(z)) + 0.5 * (log_fact[big] - log_fact[small]) - log_fact[d]
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


def _tmsv_amplitudes(x: float, cutoff: FockCutoff) -> np.ndarray:
    """The real amplitudes ψ_n ∝ x^{n/2} of ``tmsv`` on |n, n⟩, normalized
    after the leakage check."""
    _check_geometric(x, cutoff, "tmsv parameter x")
    psi = np.sqrt(x) ** np.arange(cutoff.n_max)
    return psi / np.linalg.norm(psi)


def tmsv(x: float, cutoff: FockCutoff) -> PureState:
    """Two-mode squeezed vacuum sqrt(1-x) sum x^{n/2} |n,n>."""
    d = cutoff.n_max
    return PureState(np.diag(_tmsv_amplitudes(x, cutoff)), (d, d))


# ---------------------------------------------------------------------------
# Gaussian stage unitaries


def _sectors(n_max: int, conserved: str) -> list[np.ndarray]:
    """Flat indices ``p * n_max + q`` of each sector on which the photon-number
    ``difference`` p − q or ``total`` p + q is fixed, by ascending charge;
    each sector is ordered by ascending p (one stable sort by charge, split
    where the charge changes)."""
    p, q = np.divmod(np.arange(n_max * n_max), n_max)
    charge = p - q + n_max - 1 if conserved == "difference" else p + q  # from 0
    order = np.argsort(charge, kind="stable")
    return np.split(order, np.cumsum(np.bincount(charge))[:-1])


def _sector_exponential(coupling: np.ndarray, theta: float) -> np.ndarray:
    """exp(theta * (L - L†)) on one sector, L the lowering ladder whose
    ``coupling[i]`` links basis state i to state i - 1."""
    low = np.diag(coupling[1:], k=1)
    w, v = np.linalg.eigh(1j * theta * (low - low.T))
    return (v * np.exp(-1j * w)) @ v.conj().T


def _two_mode_blocks(
    angle: float, n_max: int, kind: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(flat_idx, block)`` per conserved sector of the two-mode squeezer
    (difference sectors) or the beamsplitter (total sectors, sector ``a``
    holding p + q = a)."""
    for idx in _sectors(n_max, "difference" if kind == "squeezer" else "total"):
        p, q = np.divmod(idx, n_max)
        if kind == "squeezer":
            # descent direction is ab: (p, q) -> (p-1, q-1), coefficient sqrt(pq)
            yield idx, _sector_exponential(np.sqrt(p * q), angle)
        else:
            # descent direction is ab†: (p, q) -> (p-1, q+1); the generator wants
            # the raising combination a†b - ab†, hence the negated angle
            yield idx, _sector_exponential(np.sqrt(p * (q + 1)), -angle)


def _assemble(n_max: int, blocks) -> np.ndarray:
    """Dense n_max² × n_max² matrix of a sector-blocked operator; its
    16·n_max⁴ bytes are refused past the cap before any block is built."""
    check_bytes(16, "dense two-mode matrix", n_max, power=4)
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
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(flat_idx, block)`` per sector of the pair observable, by ascending
    charge, from its closed form
    ``W[(p,q),(p',q')] = c^{p+p'} k! / (s^{k+1} √(p! q! p'! q'!))``, s = 1 + c².

    With the conjugate reference ``k = p + q'`` and W conserves p − q; with
    the plain reference ``k = p + q`` and W conserves p + q.
    """
    log_fact = _log_factorials(2 * n_max)
    # _xlogy keeps c^0 = 1 at c = 0 (zero gain reads out vacuum ⊗ I)
    log_c = _xlogy(np.arange(n_max), c)
    log_s = math.log1p(c * c)
    for idx in _sectors(n_max, "difference" if conjugate_reference else "total"):
        p, q = np.divmod(idx, n_max)
        half = log_c[p] - 0.5 * (log_fact[p] + log_fact[q])
        k = p[:, None] + (q[None, :] if conjugate_reference else q[:, None])
        yield idx, np.exp(half[:, None] + half[None, :] + log_fact[k] - (k + 1) * log_s)


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


def _charge_transfer(kraus, conjugate: bool = False) -> np.ndarray:
    """Per-charge transfer matrices ``T[δ, x, u] = Σ_j K_j[x, u] conj(K_j[x−δ, u−δ])``
    of a Kraus family, for δ = 0 .. n − 1.

    ``T[δ]`` carries |u⟩⟨u−δ| to the |x⟩⟨x−δ|: the part of the map that
    keeps charge δ, which is all that a phase average over coherent inputs
    and targets reads, whatever the family.  For a phase-covariant family it
    is the whole map, and charge −δ is ``T[−δ, x, u] = conj(T[δ, x+δ, u+δ])``.
    ``conjugate`` gives the part that reverses charge,
    ``A[δ, x, u] = Σ_j K_j[x, u−δ] conj(K_j[x−δ, u])`` (|u−δ⟩⟨u| to |x⟩⟨x−δ|),
    which a phase-conjugating target reads; it vanishes off δ = 0 for a
    phase-covariant family, and ``A[0] = T[0]``.  A complex family is read
    through its ``.real`` and ``.imag`` views, so no slice is copied.
    """
    ks = np.asarray(kraus)
    n = ks.shape[-1]
    out = np.zeros((n, n, n), dtype=ks.dtype)  # a real family stays real
    sum_j = "jxu,jxu->xu"

    def rows(k, d):  # K[x, ·] and K[x − δ, ·], columns as charge δ reads them
        if conjugate:
            return k[:, d:, : n - d], k[:, : n - d, d:]
        return k[:, d:, d:], k[:, : n - d, : n - d]

    for d in range(n):
        ar, br = rows(ks.real, d)
        out[d, d:, d:] = np.einsum(sum_j, ar, br)
        if np.iscomplexobj(ks):  # a·conj(b) = ar·br + ai·bi + i (ai·br − ar·bi)
            ai, bi = rows(ks.imag, d)
            out.real[d, d:, d:] += np.einsum(sum_j, ai, bi)
            out.imag[d, d:, d:] = np.einsum(sum_j, ai, br) - np.einsum(sum_j, ar, bi)
    return out


def _gaussian_transfer(eta: float, gain: float, n_max: int, charge0: bool = False) -> np.ndarray:
    """Real per-charge transfer matrices (see :func:`_charge_transfer`) of the
    attenuator ``eta`` followed by the amplifier ``gain``; the attenuator's
    own at gain 1.  ``charge0`` builds charge 0 alone, shape (1, n, n).

    Each Kraus operator of either stage shifts the photon number by its own
    fixed amount, so the sum over operators in ``T[δ, x, u]`` has one nonzero
    term, and a stage's transfer is ``M[x, u] · M[x−δ, u−δ]`` of its n × n
    amplitude matrix M: ``_charge_transfer(M[None])``, with no Kraus stack.
    Both stages are phase covariant, so charge δ passes through them as the
    product of their matrices.  Every kept element is exact: the attenuator
    never raises the photon number, so truncating between the two stages
    drops nothing.
    """

    def stage(m: np.ndarray) -> np.ndarray:
        return (m * m)[None] if charge0 else _charge_transfer(m[None])

    transfer = stage(_attenuator_amplitudes(eta, n_max))
    if gain == 1.0:
        return transfer
    return stage(_amplifier_amplitudes(gain, n_max)) @ transfer


def _noise_transfer(nu: float, n_max: int) -> np.ndarray:
    """Per-charge transfer matrices of the additive noise ``nu``: the
    amplifier of gain G = 1 + 1/ν after the attenuator 1/G.

    What the cutoff loses is the amplifier's spill past n_max; that trace
    deficit only needs to vanish where setup states live, so it is guarded
    on the lower quarter of the levels.
    """
    gain = 1.0 + 1.0 / nu
    transfer = _gaussian_transfer(1.0 / gain, gain, n_max)
    deficit = 1.0 - transfer[0].sum(axis=0)
    guard = max(2, n_max // 4)
    worst = float(np.max(np.abs(deficit[:guard])))
    if worst > NOISE_DEFICIT_TOL:
        raise CutoffError(
            f"noise channel nu={nu} loses {worst:.2e} trace below level {guard}",
            suggested_n_max=2 * n_max,
        )
    return transfer


def additive_noise_channel(nu: float, cutoff: FockCutoff) -> Channel:
    """Gaussian additive noise: rho -> ∫ d²δ/π nu e^{-nu|δ|²} D(δ) rho D(δ)†.

    Realized exactly as the quantum-limited amplifier of gain G = 1 + 1/ν
    after the attenuator of transmissivity 1/G: the n_max² Kraus operators
    A_k L_j of ``_gaussian_kraus``.  Every kept matrix element is exact;
    construction fails when the trace lost past the cutoff exceeds the
    budget on the lower quarter of the kept levels.
    """
    if not nu > 0:
        raise ContractError(f"nu must be positive, got {nu}")
    n_max = cutoff.n_max
    if math.isinf(nu):
        return Channel.identity(n_max)
    _noise_transfer(nu, n_max)  # the trace-deficit guard
    gain = 1.0 + 1.0 / nu
    return Channel(_gaussian_kraus(1.0 / gain, gain, n_max), trace_preserving=False)


# ---------------------------------------------------------------------------
# analytic reference devices


@dataclass(frozen=True)
class AnalyticDevice:
    """A standard coherent-state device with a closed-form fidelity kernel.

    Each kind is the amplifier of gain G after the attenuator η, and
    ``eta_gain`` maps it: ``identity`` (1, 1), ``attenuator`` (t, 1) with
    t = ``param``, ``vacuum`` (0, 1), and ``rescale_mp`` (q²/(1+q²), 1+q²):
    heterodyne measurement, then re-preparation of ``q · γ`` with
    q = ``param`` (Hammerer, Wolf, Polzik, Cirac, PRL 94, 150503 (2005)),
    which on every coherent input gives mean qα and q² thermal photons too.
    ``average_fidelity`` is the oracle's closed form and ``pure_fidelity``
    its integrand, with no Fock truncation.  ``transfer`` gives the setup
    run (:func:`run_analytic`) the device's per-charge blocks, n_max³
    numbers built from the two stages' n_max² amplitude matrices (charge 0
    alone, n_max², under conjugation); only ``materialize`` builds the
    n_max⁴ Kraus channel.
    """

    kind: str
    param: float = 1.0

    _KINDS = ("identity", "attenuator", "vacuum", "rescale_mp")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ContractError(f"unknown analytic device kind {self.kind!r}")
        if not math.isfinite(self.param * self.param):
            raise ContractError(
                f"device parameter must be finite, with a finite square, got {self.param}"
            )
        if self.kind == "attenuator" and not (0 <= self.param <= 1):
            raise ContractError(f"attenuator transmissivity {self.param} outside [0, 1]")
        if self.kind == "rescale_mp" and self.param < 0:
            raise ContractError("re-preparation gain must be nonnegative")

    @property
    def eta_gain(self) -> tuple[float, float]:
        """Attenuator transmissivity η and amplifier gain G of the device."""
        if self.kind == "rescale_mp":
            q2 = self.param * self.param
            return q2 / (1.0 + q2), 1.0 + q2
        return {"identity": 1.0, "attenuator": self.param, "vacuum": 0.0}[self.kind], 1.0

    def pure_fidelity(self, u, v):
        """<v| C(|u><u|) |v> for coherent input u and coherent target v:
        C(|u><u|) has mean √(ηG)·u and G − 1 thermal photons."""
        eta, gain = self.eta_gain
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        return np.exp(-np.abs(math.sqrt(eta * gain) * u - v) ** 2 / gain) / gain

    def average_fidelity(self, params: CvParams) -> float:
        """``pure_fidelity`` averaged over the scenario's inputs, in closed form.

        The input u = α + β has α ~ λ e^{−λ|α|²} and β ~ μ e^{−μ|β|²}, and the
        target is gα (gᾱ on the conjugation branch).  Averaging the Gaussian
        kernel over β widens its G to G + t, t = κ²/μ with κ = √(ηG); over
        the two real axes of α it leaves F = 1/√((G + s₁)(G + s₂)) with
        s₁ = (κ − g)²/λ + t and s₂ = (κ ∓ g)²/λ + t, the sign + only under
        conjugation.
        """
        eta, gain = self.eta_gain
        kappa = math.sqrt(eta * gain)
        t = 0.0 if math.isinf(params.mu) else kappa * kappa / params.mu
        g, lam = params.g, params.lam
        d1, d2 = kappa - g, kappa + g if params.conjugate else kappa - g
        s1, s2 = d1 * d1 / lam + t, d2 * d2 / lam + t
        return 1.0 / math.sqrt((gain + s1) * (gain + s2))

    def transfer(self, n_max: int, charge0: bool = False) -> np.ndarray:
        """The device's per-charge transfer matrices T[δ, x, u] on n_max levels,
        or charge 0 alone (:func:`_gaussian_transfer`)."""
        return _gaussian_transfer(*self.eta_gain, n_max, charge0)

    def materialize(self, cutoff: FockCutoff) -> Channel:
        """The device as a Kraus :class:`Channel` on the cutoff, for export
        (``channel_to_json``) and for :func:`run_setup`; up to n_max² real
        operators, refused past the byte cap (:func:`_gaussian_kraus`)."""
        eta, gain = self.eta_gain
        return Channel(_gaussian_kraus(eta, gain, cutoff.n_max), trace_preserving=gain == 1.0)


def identity_device() -> AnalyticDevice:
    return AnalyticDevice("identity")


def attenuator_device(t: float) -> AnalyticDevice:
    return AnalyticDevice("attenuator", t)


def vacuum_device() -> AnalyticDevice:
    return AnalyticDevice("vacuum")


def rescale_mp_device(q: float = 1.0) -> AnalyticDevice:
    return AnalyticDevice("rescale_mp", q)


def _attenuator_amplitudes(t: float, n_max: int) -> np.ndarray:
    """Amplitude matrix of the photon-loss channel, the entry-wise sum of its
    Kraus set L_m = Σ_n √(C(n,m) t^{n−m} (1−t)^m) |n−m⟩⟨n|: L_m holds the
    entries with u − x = m.  ``_xlogy`` keeps 0⁰ = 1, so t = 0 gives the
    vacuum and t = 1 the identity exactly."""
    logs = _log_factorials(n_max)
    m, n = np.triu_indices(n_max)  # every m <= n
    log_k = logs[n] - logs[m] - logs[n - m] + _xlogy(n - m, t) + _xlogy(m, 1.0 - t)
    out = np.zeros((n_max, n_max))
    out[n - m, n] = np.exp(0.5 * log_k)
    return out


def _amplifier_amplitudes(gain: float, n_max: int) -> np.ndarray:
    """Amplitude matrix of the quantum-limited amplifier truncated to
    n + k < n_max, the entry-wise sum of its Kraus set
    A_k = Σ_n √(C(n+k, k) (1−1/G)^k / G^{n+1}) |n+k⟩⟨n|: A_k holds the
    entries with x − u = k.  The amplifier is the attenuator's dual,
    A_k = L_kᵀ / √G with L_k the photon-loss operators at t = 1/G, so this
    is the attenuator's matrix transposed (copied C-contiguous, so that
    products built on it round as on a freshly written array)."""
    return np.ascontiguousarray(_attenuator_amplitudes(1.0 / gain, n_max).T) / math.sqrt(gain)


def _split_diagonals(amplitudes: np.ndarray) -> np.ndarray:
    """The Kraus set behind a stage's amplitude matrix: operator k holds the
    entries with |x − u| = k, since each operator shifts the photon number by
    its own fixed amount."""
    n_max = amplitudes.shape[-1]
    x, u = np.indices((n_max, n_max))
    out = np.zeros((n_max, n_max, n_max))
    out[np.abs(x - u), x, u] = amplitudes
    return out


def _attenuator_kraus(t: float, n_max: int) -> np.ndarray:
    """Stacked photon-loss Kraus set (see :func:`_attenuator_amplitudes`); the
    one identity operator at t = 1."""
    if t == 1.0:
        return np.eye(n_max)[None]
    return _split_diagonals(_attenuator_amplitudes(t, n_max))


def _gaussian_kraus(eta: float, gain: float, n_max: int) -> np.ndarray:
    """Real Kraus set {A_k L_j} (index k · n_max + j) of the attenuator ``eta``
    followed by the amplifier ``gain``; the attenuator's own at gain 1."""
    if gain == 1.0:
        return _attenuator_kraus(eta, n_max)
    # n_max² real operators take 8·n_max⁴ bytes: refused before allocating
    check_bytes(8, f"Kraus set of gain {gain}", n_max, power=4)
    loss = _attenuator_kraus(eta, n_max)
    amp = _split_diagonals(_amplifier_amplitudes(gain, n_max))
    return np.matmul(amp[:, None], loss[None]).reshape(-1, n_max, n_max)


def heterodyne_mp_channel(q: float, cutoff: FockCutoff) -> Channel:
    """Heterodyne measurement, then re-preparation of ``|q·γ⟩``: exactly
    the amplifier 1 + q² after the attenuator q²/(1+q²), trace-nonincreasing
    by the amplifier's spill past the cutoff (the vacuum channel at q = 0).
    """
    return rescale_mp_device(q).materialize(cutoff)


# ---------------------------------------------------------------------------
# setup construction and execution


def build_setup(params: CvParams, cutoff: FockCutoff) -> CvSetup:
    """The measurement chain of ``params`` on ``cutoff`` (:class:`CvSetup`)."""
    return CvSetup(params, cutoff)


def _readout(setup: CvSetup) -> list[tuple[np.ndarray, np.ndarray]]:
    """The branch's observable, weight included, as Hermitian blocks
    ``[(flat_idx, O_d)]`` over every sector it conserves, with the setup's
    additive noise folded onto it.

    Every branch reads one rule: the exact compression onto the n_max-level
    input of its closed-form pair observable.  Fidelity branches read
    ``W_c``, which the squeezer and the Gaussian observable measure (module
    docstring); the conjugation branch reads its plain-reference form, which
    the beamsplitter's no-click readout measures once the beamsplitter keeps
    every total-photon sector the input reaches (2·n_max − 1 levels a mode).
    """
    n_max = setup.cutoff.n_max
    conjugate = setup.params.conjugate
    nu = setup.params.nu
    # the fold peaks at 61–62·n_max³ bytes: three (2n−1)·n² real charge
    # layouts, the n³ real transfer and the readout blocks
    if math.isfinite(nu):
        check_bytes(FOLD_BYTES, "noise fold", n_max)
    blocks = list(_pair_blocks(setup.params.c, n_max, conjugate_reference=not conjugate))
    if math.isfinite(nu):
        blocks = _fold_noise(blocks, _noise_transfer(nu, n_max))
    return blocks


def _fold_noise(readout, transfer: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(N† ⊗ I)(O)`` for a phase-covariant channel N on the device mode,
    given by its per-charge ``transfer`` (:func:`_charge_transfer`).

    O's elements are laid out by mode-a charge δ, ``C[δ, x, r] =
    O[(x, r), (x − δ, ·)]`` — within a sector the row and δ fix the column —
    so ``Tr[O (N ⊗ I)(ρ)] = Tr[(N† ⊗ I)(O) ρ]`` turns each ``C[δ]`` into
    ``T_δᴴ @ C[δ]``.  The result conserves the same charge as O and is
    gathered back on O's own sectors, which cover every one it conserves.
    A real transfer and real blocks fold in real arithmetic.
    """
    n = transfer.shape[-1]
    adjoint = np.zeros((2 * n - 1, n, n), dtype=transfer.dtype)  # T_δᴴ at index δ + n − 1
    adjoint[n - 1 :] = transfer.conj().transpose(0, 2, 1)
    for d in range(1, n):
        adjoint[n - 1 - d, : n - d, : n - d] = transfer[d, d:, d:].T

    def layout(idx):
        p, q = np.divmod(idx, n)
        return p[:, None] - p[None, :] + n - 1, p[:, None], q[:, None]

    charge = np.zeros(adjoint.shape, np.result_type(transfer, *{o.dtype for _, o in readout}))
    for idx, o in readout:
        charge[layout(idx)] = o
    charge = adjoint @ charge
    return [(idx, charge[layout(idx)]) for idx, _ in readout]


def _transfer_gram(transfer: np.ndarray, conjugate: bool):
    """Per-sector device Gram ``D_s = X_sᴴ X_s``, ``X_s[k, i] = K_k[p_i, q_i]``,
    read from the device's per-charge array X (:func:`_charge_transfer`): T
    on the difference sectors, the charge-reversing A on the total sectors.

    With hi ≥ lo the larger and smaller of p_i, p_j, a difference sector
    moves q with p and a total sector moves it against p, so for p_i ≥ p_j
    ``D_ij = conj X[hi − lo, hi, col]``, col = hi − (p₀ − q₀) or
    p₀ + q₀ − lo, and its mirror for p_i < p_j (each sector ascends in p).
    A charge-0 array alone (a phase-covariant device under conjugation,
    whose A vanishes off δ = 0) leaves only the diagonal ``X[0, p, q]``.
    """
    n = transfer.shape[-1]

    def gram(idx: np.ndarray) -> np.ndarray:
        p, q = np.divmod(idx, n)
        if len(transfer) == 1:
            return np.diag(transfer[0, p, q])
        hi, lo = np.maximum.outer(p, p), np.minimum.outer(p, p)
        d = transfer[hi - lo, hi, p[0] + q[0] - lo if conjugate else hi - (p[0] - q[0])]
        return np.tril(d.conj()) + np.triu(d, 1) if np.iscomplexobj(d) else d

    return gram


def _score_sectors(readout, gram, psi: np.ndarray) -> float:
    """Raw (unnormalized) score Σ_s Σ_ij O_s[i,j] D_s[i,j] ψ_{q_i} ψ_{q_j}
    of the readout blocks against the device Gram ``gram(idx)`` of each
    sector, i.e. Σ_k ⟨v_k|O|v_k⟩ over ``v_k = (K_k ⊗ I) Σ_x ψ_x |x, x⟩``."""
    n = psi.size
    total = 0.0
    for idx, o in readout:
        w = psi[idx % n]
        total += float((w @ (o * gram(idx)) @ w).real)
    return total


def _run(setup: CvSetup, transfer, trace_preserving: bool) -> tuple[float, float]:
    """``(score, p_succ)`` of the device whose per-charge array ``transfer()``
    builds, p_succ = Σ_u ψ_u² Σ_x T[0, x, u] being the mass the cutoff keeps.

    Only a device that is not trace preserving is scored conditioned on
    success (divided by p_succ).  A trace-preserving device loses 1 − p_succ
    only to its spill past the cutoff, on levels the target barely overlaps;
    dividing by p_succ would inflate its score by about F·(1 − p_succ).

    One byte guard covers both device kinds.  A pure fidelity run holds the
    ~5.3·n_max³ bytes of readout blocks, then a built-in device's two stage
    arrays and their product, 8·n³ each, or a Kraus family's one (16·n³ if
    complex): at n_max 150 tracemalloc measured 29.5·n³, 13.7·n³ on a real
    Kraus family and 21.9·n³ (23.9 at n_max 40) on a complex one; a
    built-in device under conjugation, charge 0 alone, 5.6·n³ (6.8 at
    n_max 40).  A noisy run's fold is guarded in :func:`_readout`.
    """
    n_max = setup.cutoff.n_max
    check_bytes(32, "charge-block run", n_max)
    psi = _tmsv_amplitudes(setup.x, setup.cutoff)
    readout = _readout(setup)
    x = transfer()
    p_succ = float(x[0].sum(axis=0).real @ psi**2)
    check_success(p_succ)
    raw = _score_sectors(readout, _transfer_gram(x, setup.params.conjugate), psi)
    return (raw if trace_preserving else raw / p_succ), p_succ


def _check_device_dims(device: Channel, n_max: int) -> None:
    """Refuse a Kraus device that does not act on the cutoff's ``n_max`` levels."""
    if device.dims_in != n_max or device.dims_out != n_max:
        raise DimensionError(
            f"device acts on dimension {device.dims_in}->{device.dims_out}, "
            f"cutoff is {n_max}"
        )


def run_setup(setup: CvSetup, device: Channel) -> tuple[float, float]:
    """Score a Kraus device through the single-setup measurement chain.

    Returns ``(score, p_succ)``: the observable's expectation, normalized by
    the device's success probability on the entangled input when the device
    is not ``trace_preserving``, and that success probability itself.  The
    closed-form readout blocks, with the additive-noise stage folded onto
    them, are scored sector by sector against the device's per-charge
    arrays, read in place from its Kraus array (:func:`_charge_transfer`).
    """
    _check_device_dims(device, setup.cutoff.n_max)
    conjugate = setup.params.conjugate
    return _run(setup, lambda: _charge_transfer(device.kraus, conjugate), device.trace_preserving)


def run_analytic(setup: CvSetup, device: AnalyticDevice) -> tuple[float, float]:
    """:func:`run_setup` for an :class:`AnalyticDevice`, read from its
    closed-form per-charge transfer (charge 0 alone under conjugation).
    Every built-in device is trace preserving, so its score is never
    divided by p_succ.
    """
    n_max, conjugate = setup.cutoff.n_max, setup.params.conjugate
    return _run(setup, lambda: device.transfer(n_max, charge0=conjugate), trace_preserving=True)


# ---------------------------------------------------------------------------
# exact reference


def _fock_series(device: Channel, params: CvParams, n_max: int) -> float:
    """Average fidelity of a Kraus device as a finite Fock series.

    Expanding the target ⟨gα| and the input |α⟩ over the kept levels, the
    prior's phase average leaves, per charge δ, the device's array from
    :func:`_charge_transfer` against the radial weights λ·k!/s^{k+1} ·
    g^{2m−δ}/√(m!(m−δ)!u!(u−δ)!), s = λ + 1 + g², k = m + u − δ; charge −δ
    adds the conjugate.  At finite μ the target, given the input u = α + β,
    is |g′u⟩, g′ = gμ/(λ+μ), under the noise ν = (λ+μ)/g², and u has prior
    λ′ = λμ/(λ+μ): the pure series at (λ′, g′) of ``T_ν[δ] @ T[δ]`` (the
    noise is self-dual), conditioned on the device's own mass.  It reads
    neither the readout blocks nor the tmsv, so it checks the run's reduction.
    """
    transfer = _charge_transfer(device.kraus, params.conjugate)
    mass = transfer[0].sum(axis=0).real  # Σ_k ‖K_k|u⟩‖²
    lam, g = params.lam, params.g
    if math.isfinite(params.mu):
        shrink = params.mu / (params.lam + params.mu)
        lam, g = lam * shrink, g * shrink
        if math.isfinite(params.nu):
            transfer = _noise_transfer(params.nu, n_max) @ transfer
    log_fact = _log_factorials(2 * n_max)
    radial = log_fact - np.arange(1, 2 * n_max + 1) * math.log1p(lam + g * g)
    d, m, u = np.ogrid[:n_max, :n_max, :n_max]
    m_lo, u_lo = np.maximum(m - d, 0), np.maximum(u - d, 0)
    log_w = radial[m + u_lo] + _xlogy(m + m_lo, g) - 0.5 * (log_fact[m] + log_fact[m_lo])
    log_w -= 0.5 * (log_fact[u] + log_fact[u_lo])
    weights = np.where((m >= d) & (u >= d), np.exp(log_w), 0.0)
    weights[1:] *= 2.0  # charge −δ adds the conjugate of charge δ
    p_succ = lam * float(mass @ np.exp(-np.arange(1, n_max + 1) * math.log1p(lam)))
    check_success(p_succ)
    return lam * float(np.sum(transfer.real * weights)) / p_succ


def average_fidelity_oracle(device, params: CvParams, cutoff: FockCutoff) -> OracleResult:
    """Exact average fidelity over the Gaussian ensemble of (noisy) inputs.

    An :class:`AnalyticDevice` gets its closed form
    (:meth:`AnalyticDevice.average_fidelity`): no truncation, and ``cutoff``
    goes unused.  A :class:`Channel` of Fock-space Kraus operators on the
    cutoff's levels gets the Fock series of the device as given
    (:func:`_fock_series`), scored conditionally on success; its n_max³
    arrays are refused past ``ARRAY_MAX_BYTES`` before any is built.
    """
    if isinstance(device, AnalyticDevice):
        return OracleResult(device.average_fidelity(params), "closed_form")
    if not isinstance(device, Channel):
        raise ContractError(f"cannot score a device of type {type(device).__name__}")
    n_max = cutoff.n_max
    _check_device_dims(device, n_max)
    check_bytes(SERIES_BYTES, "oracle series", n_max)
    return OracleResult(_fock_series(device, params, n_max), "fock_series")


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
