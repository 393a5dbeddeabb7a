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
    CutoffError,
    DimensionError,
    ImaginaryResidueError,
    VanishingSuccessError,
)
from .linalg import (
    HERM_TOL,
    RANK_TOL,
    Operator,
    PureState,
    check_finite,
    frobenius_norm,
    json_scalar,
    operator_from_json,
    operator_to_json,
    positive_ints,
    reading,
)

IMAG_TOL = 1e-9  # imaginary residue of a pairing Tr AB, per ||A||_F * ||B||_F
# sum K†K, or a POVM's sum, is I within COMPLETENESS_TOL * √d in Frobenius
# norm; one that is not I exceeds it by at most COMPLETENESS_TOL
COMPLETENESS_TOL = 1e-9
PROB_SUM_TOL = 1e-12  # deviation of a probability vector's sum from 1
ARRAY_MAX_BYTES = 2**30  # largest array a builder, a channel file or the oracle allocates
P_SUCC_MIN = 1e-12  # no score is divided by a success probability at or below this


def check_bytes(need: float, what: str, n_max: int | None = None, power: int = 3) -> None:
    """Refuse ``what`` with :class:`CutoffError` before it allocates past
    ``ARRAY_MAX_BYTES``.  ``need`` is its bytes, or with a cutoff its bytes
    per ``n_max**power``, and the error then suggests the largest cutoff
    that fits."""
    total = need if n_max is None else need * n_max**power
    if total > ARRAY_MAX_BYTES:
        where = "" if n_max is None else f" at n_max={n_max}"
        # rounded, then stepped down if past: a floored float root misses an exact fit
        fit = None if n_max is None else round((ARRAY_MAX_BYTES / need) ** (1 / power))
        if fit is not None and need * fit**power > ARRAY_MAX_BYTES:
            fit -= 1
        raise CutoffError(
            f"{what}{where} needs {total / 2**20:.0f} MiB, past the {ARRAY_MAX_BYTES >> 20} MiB cap",
            suggested_n_max=fit,
        )


def is_complete(total: np.ndarray, what: str) -> bool:
    """True when ``total`` — sum K†K of a Kraus family, or a POVM's sum — is
    the identity within ``COMPLETENESS_TOL``, False when it lies below it.
    Raises :class:`ContractError` when it exceeds the identity."""
    d = total.shape[0]
    gap = total - np.eye(d)
    # an admitted family's gap may overflow the norm: inf then fails the rule
    if frobenius_norm(gap) <= COMPLETENESS_TOL * np.sqrt(d):
        return True
    top = np.max(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T)))
    if top > COMPLETENESS_TOL:
        raise ContractError(f"{what} exceeds I by {top:.3e}")
    return False


def check_success(p: float) -> None:
    """Refuse with :class:`VanishingSuccessError` a success probability to
    divide by that is at or below ``P_SUCC_MIN``."""
    if p <= P_SUCC_MIN:
        raise VanishingSuccessError(
            f"success probability {p:.3e} at or below threshold {P_SUCC_MIN:.0e}"
        )


@dataclass(frozen=True)
class Channel:
    """A completely positive map in Kraus form.

    ``kraus`` is one read-only ``(K, d_out, d_in)`` array: a stacked array
    is kept as given (a real one stays real, and a C-ordered one is not
    copied), a list of matrices is stacked once; ``dims_in`` and
    ``dims_out`` are read from its shape.  ``trace_preserving``
    distinguishes deterministic devices (sum K†K = I) from
    trace-nonincreasing quantum operations (sum K†K ≤ I).
    """

    kraus: np.ndarray
    trace_preserving: bool

    def __init__(self, kraus, trace_preserving: bool = True):
        try:
            ks = np.asarray(kraus)
        except ValueError as exc:
            raise DimensionError("Kraus operators must be matrices of one shape") from exc
        if ks.size == 0:
            raise ContractError("a channel needs at least one Kraus operator")
        if ks.ndim != 3:
            raise DimensionError("Kraus operators must be matrices of one shape")
        ks = np.asarray(ks, dtype=complex if np.iscomplexobj(ks) else float, order="C")
        check_finite(ks, "Kraus operators")
        flat = ks.reshape(-1, ks.shape[2])
        complete = is_complete(flat.conj().T @ flat, "the channel's sum K†K")
        if trace_preserving and not complete:
            raise ContractError("Kraus operators of a trace-preserving channel must sum to I")
        ks = ks.view()
        ks.setflags(write=False)
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "trace_preserving", bool(trace_preserving))

    @property
    def dims_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dims_out(self) -> int:
        return self.kraus.shape[1]

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
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
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


def _real_score(value: complex, a: np.ndarray, b: np.ndarray, what: str) -> float:
    # value is Tr AB: its residue is judged at ||a||_F * ||b||_F, which bounds
    # |Tr AB|, and not at a real part that may cancel
    tol = IMAG_TOL * frobenius_norm(a) * frobenius_norm(b)
    if abs(value.imag) > tol:
        raise ImaginaryResidueError(
            f"{what} has imaginary residue {value.imag:.3e} (tolerance {tol:.1e})"
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
    return _real_score(value, t.observable.matrix, evolved, "deterministic score")


def score_det_jam(omega: Operator, c_jam: Operator) -> float:
    """Score from the operator pairing Tr[Omega C]."""
    if omega.dims != c_jam.dims:
        raise DimensionError(f"dims mismatch: {omega.dims} vs {c_jam.dims}")
    value = np.trace(omega.matrix @ c_jam.matrix)
    return _real_score(value, omega.matrix, c_jam.matrix, "score pairing")


def score_prob(t: ProbTest, c: Channel) -> tuple[float, float]:
    """(score, success probability) of a trace-nonincreasing device."""
    c_jam = jamiolkowski(c)
    if c_jam.dims != t.omega.dims:
        raise DimensionError(f"dims mismatch: {c_jam.dims} vs {t.omega.dims}")
    d_ap = t.omega.dims[0]
    jam, marginal, omega = c_jam.matrix, np.kron(np.eye(d_ap), t.sigma_A.matrix), t.omega.matrix
    p_succ = _real_score(np.trace(jam @ marginal), jam, marginal, "success probability")
    check_success(p_succ)
    numerator = _real_score(np.trace(jam @ omega), jam, omega, "probabilistic score")
    return numerator / p_succ, p_succ


def mp_channel(povm, outputs) -> Channel:
    """Measure-and-prepare channel: measure a POVM, prepare per outcome.

    Kraus operators are sqrt-weighted output eigenvectors against
    sqrt-weighted measurement vectors, so the Jamiolkowski operator is
    separable by construction.
    """
    povm = [m.matrix if isinstance(m, Operator) else np.asarray(m, dtype=complex) for m in povm]
    outputs = [m.matrix if isinstance(m, Operator) else np.asarray(m, dtype=complex) for m in outputs]
    if len(povm) != len(outputs) or not povm:
        raise DimensionError("need equally many POVM elements and output states")
    for m in povm + outputs:
        check_finite(m, "POVM elements and prepared outputs")
    deterministic = is_complete(sum(povm), "the POVM's sum")
    kraus = []
    for pi, rho in zip(povm, outputs):
        if abs(np.trace(rho) - 1.0) > HERM_TOL:
            raise ContractError("prepared outputs must have unit trace")
        wp, vp = np.linalg.eigh(0.5 * (pi + pi.conj().T))
        if wp[0] < -HERM_TOL:  # a POVM element lies in [0, I]: dimensionless
            raise ContractError("POVM elements must be PSD")
        wo, vo = np.linalg.eigh(0.5 * (rho + rho.conj().T))
        for l in range(len(wp)):
            if wp[l] <= RANK_TOL:
                continue
            meas = np.sqrt(wp[l]) * vp[:, l]
            for m in range(len(wo)):
                if wo[m] <= RANK_TOL:
                    continue
                prep = np.sqrt(wo[m]) * vo[:, m]
                kraus.append(np.outer(prep, meas.conj()))
    return Channel(kraus, trace_preserving=deterministic)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def channel_to_json(c: Channel) -> dict:
    """Compact form: the Kraus array's ``shape``, the flat ``index`` of every
    entry that is not +0.0, and their ``re`` parts, plus ``im`` for a complex
    family; each float is written at full precision, so the array reads back
    bit for bit."""
    flat = c.kraus.reshape(-1)
    index = np.flatnonzero(flat.view(np.uint8).reshape(flat.size, -1).any(axis=1))
    kraus = {"shape": list(c.kraus.shape), "index": index.tolist(), "re": flat.real[index].tolist()}
    if np.iscomplexobj(flat):
        kraus["im"] = flat.imag[index].tolist()
    return {
        "kraus": kraus,
        "trace_preserving": c.trace_preserving,
        "dims_in": c.dims_in,
        "dims_out": c.dims_out,
    }


def _compact_kraus(data: dict) -> np.ndarray:
    """The Kraus array of a compact ``kraus`` entry, read under the channel's
    :func:`reading`; its dense size is checked against ``ARRAY_MAX_BYTES``
    before anything is allocated."""
    shape = positive_ints(data["shape"], "shape")
    if len(shape) != 3:
        raise ValueError(f"shape {shape} is not (K, d_out, d_in)")
    size = shape[0] * shape[1] * shape[2]
    check_bytes(16 * size, f"channel file's {shape} Kraus array, as complex,")
    index = np.asarray(data["index"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data["im"], dtype=float) if "im" in data else None
    if index.ndim != 1 or re.shape != index.shape or (im is not None and im.shape != re.shape):
        raise ValueError("index, re and im must be lists of one length")
    if index.size and index.dtype.kind not in "iu":
        raise ValueError("an index is not an integer")
    index = index.astype(np.int64)
    ordered = np.sort(index)  # np.unique would import numpy.ma (~10 ms cold)
    if index.size and (ordered[0] < 0 or ordered[-1] >= size):
        raise ValueError(f"an index lies outside the {size} entries of the shape")
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("an index is repeated")
    out = np.zeros(size, dtype=float if im is None else complex)
    out[index] = re if im is None else re + 1j * im
    return out.reshape(shape)


def channel_from_json(data: dict) -> Channel:
    """A channel from :func:`channel_to_json`'s compact form, or from the
    dense form, one ``{"re", "im"}`` pair of nested lists per operator."""
    with reading("channel"):
        if isinstance(data["kraus"], dict):
            kraus = _compact_kraus(data["kraus"])
        else:
            kraus = []
            for k in data["kraus"]:
                re, im = np.asarray(k["re"], dtype=float), np.asarray(k["im"], dtype=float)
                # an all-zero imaginary part keeps a real operator real
                kraus.append(re + 1j * im if im.any() else re)
        c = Channel(kraus, json_scalar(data.get("trace_preserving", True), bool, "trace_preserving"))
        shape = c.dims_out, c.dims_in
        sizes = [data.get("dims_out", shape[0]), data.get("dims_in", shape[1])]
        declared = positive_ints(sizes, "dims_out and dims_in")
    if declared != shape:
        raise DimensionError(f"Kraus shape {shape} conflicts with dims {declared}")
    return c


def det_test_to_json(t: DetTest) -> dict:
    return {
        "sigma_AR": operator_to_json(t.sigma_AR),
        "observable": operator_to_json(t.observable),
    }


def det_test_from_json(data: dict) -> DetTest:
    with reading("deterministic-test"):
        return DetTest(operator_from_json(data["sigma_AR"]), operator_from_json(data["observable"]))


def prob_test_to_json(t: ProbTest) -> dict:
    return {
        "omega": operator_to_json(t.omega),
        "sigma_A": operator_to_json(t.sigma_A),
    }


def prob_test_from_json(data: dict) -> ProbTest:
    with reading("probabilistic-test"):
        return ProbTest(operator_from_json(data["omega"]), operator_from_json(data["sigma_A"]))
