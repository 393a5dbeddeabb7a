"""Channels, benchmark tests, and the performance-operator calculus.

A deterministic test presents a joint input state sigma_AR and measures one
joint observable O on A'R after the device acts on A. Its entire effect on
any device is captured by a single performance operator on A'⊗A, paired with
the device's Jamiolkowski operator through a plain trace. Probabilistic
tests additionally carry the input marginal so scores can be renormalized by
the success probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    DimensionError,
    ImaginaryResidueError,
    VanishingSuccessError,
)
from .linalg import (
    Operator,
    PureState,
    operator_from_json,
    operator_to_json,
    state_from_json,
    state_to_json,
)

IMAG_TOL = 1e-9  # absolute imaginary-residue tolerance on all trace scores


@dataclass(frozen=True)
class Channel:
    """A completely positive map in Kraus form.

    ``kraus`` is one read-only ``(K, d_out, d_in)`` array: a stacked array
    is kept as given (a real one stays real, and a C-ordered one is not
    copied), a list of matrices is stacked once.  ``trace_preserving``
    distinguishes deterministic devices (sum K†K = I) from
    trace-nonincreasing quantum operations (sum K†K ≤ I).
    """

    kraus: np.ndarray
    trace_preserving: bool
    dims_in: int
    dims_out: int

    def __init__(self, kraus, trace_preserving: bool = True,
                 dims_in: int | None = None, dims_out: int | None = None):
        try:
            ks = np.asarray(kraus)
        except ValueError as exc:
            raise DimensionError("Kraus operators must be matrices of one shape") from exc
        if ks.size == 0:
            raise ContractError("a channel needs at least one Kraus operator")
        if ks.ndim != 3:
            raise DimensionError("Kraus operators must be matrices of one shape")
        ks = np.asarray(ks, dtype=complex if np.iscomplexobj(ks) else float, order="C")
        _, out_d, in_d = ks.shape
        dims_in = in_d if dims_in is None else int(dims_in)
        dims_out = out_d if dims_out is None else int(dims_out)
        if (out_d, in_d) != (dims_out, dims_in):
            raise DimensionError(
                f"Kraus shape {(out_d, in_d)} conflicts with dims {(dims_out, dims_in)}"
            )
        flat = ks.reshape(-1, in_d)
        gap = flat.conj().T @ flat - np.eye(in_d)
        if trace_preserving:
            if np.linalg.norm(gap) > 1e-9 * max(1.0, np.sqrt(in_d)):
                raise ContractError(
                    "Kraus operators of a trace-preserving channel must sum to I "
                    f"(deviation {np.linalg.norm(gap):.3e})"
                )
        else:
            top = np.max(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T)))
            if top > 1e-9:
                raise ContractError(
                    f"trace-nonincreasing channel exceeds I by {top:.3e}"
                )
        ks = ks.view()
        ks.setflags(write=False)
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "trace_preserving", bool(trace_preserving))
        object.__setattr__(self, "dims_in", dims_in)
        object.__setattr__(self, "dims_out", dims_out)

    @staticmethod
    def identity(d: int) -> "Channel":
        return Channel(np.eye(d)[None], True)


@dataclass(frozen=True)
class DetTest:
    """Deterministic test: input state on (A, R), observable on (A', R)."""

    sigma_AR: Operator
    observable: Operator

    def __post_init__(self):
        if len(self.sigma_AR.dims) != 2 or len(self.observable.dims) != 2:
            raise DimensionError("DetTest operators must be bipartite (dims of length 2)")
        if self.sigma_AR.dims[1] != self.observable.dims[1]:
            raise DimensionError(
                f"reference dims differ: state {self.sigma_AR.dims} vs "
                f"observable {self.observable.dims}"
            )
        if not (self.sigma_AR.is_psd() and self.sigma_AR.is_unit_trace()):
            raise ContractError("sigma_AR must be a density operator")
        if not self.observable.is_hermitian():
            raise ContractError("observable must be Hermitian")


@dataclass(frozen=True)
class ProbTest:
    """Probabilistic test: performance operator on (A', A) plus input marginal."""

    omega: Operator
    sigma_A: Operator

    def __post_init__(self):
        if len(self.omega.dims) != 2:
            raise DimensionError("omega must be bipartite (dims of length 2)")
        if self.sigma_A.side != self.omega.dims[1]:
            raise DimensionError(
                f"sigma_A side {self.sigma_A.side} must equal omega's input dim "
                f"{self.omega.dims[1]}"
            )
        if not self.omega.is_hermitian():
            raise ContractError("omega must be Hermitian")
        if not (self.sigma_A.is_psd() and self.sigma_A.is_unit_trace()):
            raise ContractError("sigma_A must be a density operator")


@dataclass(frozen=True)
class Ensemble:
    """Weighted input states with pure target states."""

    states: tuple[Operator, ...]
    targets: tuple[PureState, ...]
    probs: np.ndarray

    def __init__(self, states, targets, probs):
        states = tuple(_coerce_density(s) for s in states)
        targets = tuple(_coerce_pure(t) for t in targets)
        probs = np.asarray(probs, dtype=float)
        if not (len(states) == len(targets) == probs.size > 0):
            raise DimensionError("states, targets, probs must be equal-length and nonempty")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ContractError(f"probabilities sum to {probs.sum()}, not 1")
        if np.any(probs < 0):
            raise ContractError("probabilities must be nonnegative")
        for s in states:
            if not (s.is_psd() and s.is_unit_trace()):
                raise ContractError("ensemble states must be density operators")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "probs", probs)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _coerce_density(s) -> Operator:
    if isinstance(s, Operator):
        return s
    if isinstance(s, PureState):
        return s.density()
    arr = np.asarray(s, dtype=complex)
    if arr.ndim == 1:
        return PureState(arr, (arr.size,)).density()
    return Operator(arr, (arr.shape[0],))


def _coerce_pure(t) -> PureState:
    if isinstance(t, PureState):
        return t
    arr = np.asarray(t, dtype=complex)
    if arr.ndim != 1:
        raise ContractError("targets must be pure states (amplitude vectors)")
    return PureState(arr, (arr.size,))


def _real_score(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_TOL:
        raise ImaginaryResidueError(
            f"{what} has imaginary residue {value.imag:.3e} (tolerance {IMAG_TOL:.0e})"
        )
    return float(value.real)


def performance_operator(t: DetTest) -> Operator:
    """Collapse a deterministic test to its performance operator on (A', A).

    Pairing the result with a device's Jamiolkowski operator via
    ``score_det_jam`` reproduces the measured score for every channel.
    """
    d_a, d_r = t.sigma_AR.dims
    d_ap, d_r2 = t.observable.dims
    o4 = t.observable.matrix.reshape(d_ap, d_r, d_ap, d_r)
    s4 = t.sigma_AR.matrix.reshape(d_a, d_r, d_a, d_r)
    # Omega[(x,a),(y,b)] = sum_{r,s} O[(x,r),(y,s)] * sigma[(a,s),(b,r)]
    omega4 = np.einsum("xrys,asbr->xayb", o4, s4)
    return Operator(omega4.reshape(d_ap * d_a, d_ap * d_a), (d_ap, d_a))


def fidelity_test(e: Ensemble) -> ProbTest:
    """Average input-output state of an ensemble, as a probabilistic test."""
    d_a = e.states[0].side
    d_ap = len(e.targets[0].amplitudes)
    omega = np.zeros((d_ap * d_a, d_ap * d_a), dtype=complex)
    sigma = np.zeros((d_a, d_a), dtype=complex)
    for p, rho, target in zip(e.probs, e.states, e.targets):
        tproj = np.outer(target.amplitudes, target.amplitudes.conj())
        omega += p * np.kron(tproj, rho.matrix)
        sigma += p * rho.matrix
    return ProbTest(Operator(omega, (d_ap, d_a)), Operator(sigma, (d_a,)))


def jamiolkowski(c: Channel) -> Operator:
    """Jamiolkowski operator sum_ij C(|i><j|) ⊗ |j><i| on dims (out, in).

    This is the Choi matrix partially transposed on the input factor; for a
    trace-preserving channel the partial trace over the output factor is the
    identity.
    """
    c4 = np.einsum("kas,kbr->arbs", c.kraus, c.kraus.conj())
    d = c.dims_out * c.dims_in
    return Operator(c4.reshape(d, d), (c.dims_out, c.dims_in))


def evolve_input(c: Channel, sigma: np.ndarray) -> np.ndarray:
    """(C ⊗ I)(sigma) on the (out, ref, out, ref) axes, for ``sigma`` on
    (in, ref, in, ref): one contraction over the stacked Kraus array."""
    return np.einsum("kxa,arbs,kyb->xrys", c.kraus, sigma, c.kraus.conj(), optimize=True)


def apply_channel(c: Channel, rho: Operator) -> Operator:
    if rho.side != c.dims_in:
        raise DimensionError(
            f"state side {rho.side} does not match channel input {c.dims_in}"
        )
    d = c.dims_in
    out = evolve_input(c, rho.matrix.reshape(d, 1, d, 1))
    return Operator(out.reshape(c.dims_out, c.dims_out), (c.dims_out,))


def score_det_direct(t: DetTest, c: Channel) -> float:
    """Score by literally running the test: Tr[O (C⊗I)(sigma_AR)]."""
    if not c.trace_preserving:
        raise ContractError("deterministic scoring requires a trace-preserving channel")
    d_a, d_r = t.sigma_AR.dims
    if c.dims_in != d_a or c.dims_out != t.observable.dims[0]:
        raise DimensionError("channel dims do not match the test")
    evolved = evolve_input(c, t.sigma_AR.matrix.reshape(d_a, d_r, d_a, d_r))
    d_ap = c.dims_out
    value = np.einsum(
        "xrys,ysxr->", t.observable.matrix.reshape(d_ap, d_r, d_ap, d_r), evolved
    )
    return _real_score(value, "deterministic score")


def score_det_jam(omega: Operator, c_jam: Operator) -> float:
    """Score from the operator pairing Tr[Omega C]."""
    if omega.dims != c_jam.dims:
        raise DimensionError(f"dims mismatch: {omega.dims} vs {c_jam.dims}")
    value = np.trace(omega.matrix @ c_jam.matrix)
    return _real_score(value, "score pairing")


def score_prob(t: ProbTest, c: Channel, p_min: float = 1e-12) -> tuple[float, float]:
    """(score, success probability) of a trace-nonincreasing device."""
    c_jam = jamiolkowski(c)
    if c_jam.dims != t.omega.dims:
        raise DimensionError(f"dims mismatch: {c_jam.dims} vs {t.omega.dims}")
    d_ap = t.omega.dims[0]
    marginal = Operator(np.kron(np.eye(d_ap), t.sigma_A.matrix), t.omega.dims)
    p_succ = _real_score(np.trace(c_jam.matrix @ marginal.matrix), "success probability")
    if p_succ <= p_min:
        raise VanishingSuccessError(
            f"success probability {p_succ:.3e} at or below threshold {p_min:.0e}"
        )
    numerator = _real_score(np.trace(c_jam.matrix @ t.omega.matrix), "probabilistic score")
    return numerator / p_succ, p_succ


def mp_channel(povm, outputs, rank_tol: float = 1e-12) -> Channel:
    """Measure-and-prepare channel: measure a POVM, prepare per outcome.

    Kraus operators are sqrt-weighted output eigenvectors against
    sqrt-weighted measurement vectors, so the Jamiolkowski operator is
    separable by construction.
    """
    povm = [m.matrix if isinstance(m, Operator) else np.asarray(m, dtype=complex) for m in povm]
    outputs = [m.matrix if isinstance(m, Operator) else np.asarray(m, dtype=complex) for m in outputs]
    if len(povm) != len(outputs) or not povm:
        raise DimensionError("need equally many POVM elements and output states")
    d_in = povm[0].shape[0]
    total = sum(povm)
    gap = total - np.eye(d_in)
    deterministic = np.linalg.norm(gap) <= 1e-9 * max(1.0, np.sqrt(d_in))
    if not deterministic:
        top = np.max(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T)))
        if top > 1e-9:
            raise ContractError(
                f"POVM exceeds completeness by {top:.3e}; not a valid measurement"
            )
    kraus = []
    for pi, rho in zip(povm, outputs):
        if abs(np.trace(rho) - 1.0) > 1e-9:
            raise ContractError("prepared outputs must have unit trace")
        wp, vp = np.linalg.eigh(0.5 * (pi + pi.conj().T))
        if wp[0] < -1e-9 * max(1.0, wp[-1]):
            raise ContractError("POVM elements must be PSD")
        wo, vo = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        for l in range(len(wp)):
            if wp[l] <= rank_tol:
                continue
            meas = np.sqrt(wp[l]) * vp[:, l]
            for m in range(len(wo)):
                if wo[m] <= rank_tol:
                    continue
                prep = np.sqrt(wo[m]) * vo[:, m]
                kraus.append(np.outer(prep, meas.conj()))
    return Channel(kraus, trace_preserving=deterministic)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def channel_to_json(c: Channel) -> dict:
    return {
        "kraus": [
            {"re": k.real.tolist(), "im": k.imag.tolist()} for k in c.kraus
        ],
        "trace_preserving": c.trace_preserving,
        "dims_in": c.dims_in,
        "dims_out": c.dims_out,
    }


def channel_from_json(data: dict) -> Channel:
    try:
        kraus = []
        for k in data["kraus"]:
            re, im = np.asarray(k["re"], dtype=float), np.asarray(k["im"], dtype=float)
            # an all-zero imaginary part keeps a real operator real
            kraus.append(re + 1j * im if im.any() else re)
        tp = bool(data.get("trace_preserving", True))
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"malformed channel JSON: {exc}") from exc
    return Channel(kraus, tp, data.get("dims_in"), data.get("dims_out"))


def det_test_to_json(t: DetTest) -> dict:
    return {
        "sigma_AR": operator_to_json(t.sigma_AR),
        "observable": operator_to_json(t.observable),
    }


def det_test_from_json(data: dict) -> DetTest:
    try:
        return DetTest(
            operator_from_json(data["sigma_AR"]),
            operator_from_json(data["observable"]),
        )
    except KeyError as exc:
        raise ContractError(f"malformed deterministic-test JSON: missing {exc}") from exc


def prob_test_to_json(t: ProbTest) -> dict:
    return {
        "omega": operator_to_json(t.omega),
        "sigma_A": operator_to_json(t.sigma_A),
    }


def prob_test_from_json(data: dict) -> ProbTest:
    try:
        return ProbTest(
            operator_from_json(data["omega"]),
            operator_from_json(data["sigma_A"]),
        )
    except KeyError as exc:
        raise ContractError(f"malformed probabilistic-test JSON: missing {exc}") from exc


def ensemble_to_json(e: Ensemble) -> dict:
    return {
        "states": [operator_to_json(s) for s in e.states],
        "targets": [state_to_json(t) for t in e.targets],
        "probs": e.probs.tolist(),
    }


def ensemble_from_json(data: dict) -> Ensemble:
    try:
        return Ensemble(
            [operator_from_json(s) for s in data["states"]],
            [state_from_json(t) for t in data["targets"]],
            data["probs"],
        )
    except KeyError as exc:
        raise ContractError(f"malformed ensemble JSON: missing {exc}") from exc
