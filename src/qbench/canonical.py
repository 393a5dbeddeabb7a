"""Reduction of arbitrary tests to a single entangled-input setup.

Any deterministic or probabilistic test — an ensemble of inputs, a
weighted family of observables, anything with a performance operator —
can be replaced by one measurement on the output of the device applied
to half of a fixed pure state.  The recipe here stores that pure state,
the output observable, and the reference state the input half must
reproduce.  Scores are preserved exactly: reconstructing the performance
operator from the recipe returns the original one.

For a performance operator with a negative partial transpose the
observable of the reduced test would not be positive; such operators are
first shifted by -lambda_min of their partial transpose on the input
factor (recorded in ``offset``), the least multiple of I that makes the
recipe physical, and the benchmark is reported for the raw, un-shifted
test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .engine import GroupRep, PnrConfig, check_input_support, det_benchmark, ppt_offset
from .errors import ContractError, DimensionError, NumericalError, SearchError
from .linalg import (
    Operator,
    PureState,
    frobenius_norm,
    operator_from_json,
    operator_to_json,
    partial_trace,
    partial_transpose,
    purify,
    state_from_json,
    state_to_json,
    support_mask,
)
from .model import Channel, DetTest, ProbTest, check_success, evolve_input, performance_operator

RECIPE_TOL = 1e-9


@dataclass(frozen=True)
class CanonicalTestRecipe:
    """One entangled input, one output observable, a reference marginal.

    ``input_state`` lives on (input, reference) factors, ``observable``
    on (output, reference).  The input marginal of the state always
    equals ``tau_A``.  ``offset`` records the multiple of I added to keep
    the observable positive (see ``ppt_offset``); ``benchmark`` (when set)
    is the measure-and-prepare threshold of the raw, un-shifted test.
    """

    input_state: PureState
    observable: Operator
    tau_A: Operator
    offset: float = 0.0
    benchmark: float | None = None

    def __post_init__(self) -> None:
        if len(self.input_state.dims) != 2 or len(self.observable.dims) != 2:
            raise DimensionError("recipe state and observable must be bipartite")
        d_a, r = self.input_state.dims
        d_out, r2 = self.observable.dims
        if r2 != r:
            raise DimensionError(
                f"observable reference dim {r2} must match state reference dim {r}"
            )
        if self.tau_A.side != d_a:
            raise DimensionError(
                f"tau_A side {self.tau_A.side} must match input dim {d_a}"
            )
        if not self.observable.is_hermitian():
            raise ContractError("recipe observable must be Hermitian")
        marginal = partial_trace(self.input_state.density(), keep=[0])
        gap = np.linalg.norm(marginal.matrix - self.tau_A.matrix)
        if gap > RECIPE_TOL:
            raise ContractError(
                f"input marginal misses tau_A by {gap:.3e} (tolerance {RECIPE_TOL:.0e})"
            )

    def as_det_test(self) -> DetTest:
        return DetTest(self.input_state.density(), self.observable)


def canonical_det_test(
    omega: Operator, tau_A: Operator | None = None
) -> CanonicalTestRecipe:
    """Single-setup test reproducing a given performance operator.

    Purifies the reference state tau_A (default: maximally mixed on the
    input support of the partially transposed operator), pairs the
    purification's reference factor back onto the input factor, and
    conjugates omega^{T_A} into an output observable.  The returned
    recipe's :func:`round_trip_residual` passes :func:`within_recipe_tol`
    at the scale of omega.
    """
    if len(omega.dims) != 2:
        raise DimensionError("performance operator must be bipartite")
    if not omega.is_hermitian():
        raise ContractError("performance operator must be Hermitian")
    d_out, d_in = omega.dims
    omega_pt = partial_transpose(omega, 1)

    if tau_A is None:
        # Maximally mixed on the input support of omega^{T_A}; the
        # marginal can be indefinite, so support means eigenvalues of
        # either sign.
        marg = partial_trace(omega_pt, keep=[1])
        w, v = np.linalg.eigh(0.5 * (marg.matrix + marg.matrix.conj().T))
        keep = support_mask(np.abs(w))
        if not np.any(keep):
            keep = np.ones_like(w, dtype=bool)
        rank = int(keep.sum())
        proj = v[:, keep] @ v[:, keep].conj().T
        tau_A = Operator(proj / rank, (d_in,))
    else:
        if tau_A.side != d_in:
            raise DimensionError(
                f"tau_A side {tau_A.side} must match input dim {d_in}"
            )
        if not (tau_A.is_psd() and tau_A.is_unit_trace()):
            raise ContractError("tau_A must be a density operator")

    check_input_support(omega_pt, tau_A.matrix)

    input_state = purify(tau_A)
    psi = input_state.amplitudes.reshape(input_state.dims)  # eigenvectors times sqrt(lambda)
    lam = np.einsum("an,an->n", psi.conj(), psi).real

    # The observable pairs against the *conjugate* eigenbasis: the input
    # state carries the unconjugated one, and their product must close to
    # the support projector, not its transpose.
    embed = np.kron(np.eye(d_out), psi.conj() / lam[None, :])
    obs = embed.conj().T @ omega_pt.matrix @ embed
    observable = Operator(0.5 * (obs + obs.conj().T), (d_out, psi.shape[1]))

    recipe = CanonicalTestRecipe(input_state, observable, tau_A)
    gap = round_trip_residual(recipe, omega)
    if not within_recipe_tol(gap, frobenius_norm(omega.matrix)):
        raise NumericalError(
            f"canonical reduction failed to reproduce the operator (gap {gap:.3e})"
        )
    return recipe


def within_recipe_tol(err: float, scale: float) -> bool:
    """The one rule for a recipe: a round-trip residual, a check channel's
    score deviation, or the gap between two tests' operators, passes when it
    is at most ``RECIPE_TOL * scale``, ``scale`` being the size of the
    operands it was computed from."""
    return bool(err <= RECIPE_TOL * scale)


def round_trip_residual(recipe: CanonicalTestRecipe, omega: Operator) -> float:
    """Frobenius norm of ``Omega(recipe) - offset * I - omega``: how far the
    recipe's own performance operator, un-shifted, misses ``omega``."""
    rebuilt = performance_operator(recipe.as_det_test()).matrix
    return float(np.linalg.norm(rebuilt - recipe.offset * np.eye(len(rebuilt)) - omega.matrix))


def canonical_prob_test(t: ProbTest) -> CanonicalTestRecipe:
    """Single-setup reduction of a probabilistic test.

    Uses the test's own reference state as the input marginal; both the
    conditional score and the success probability of every device are
    preserved, because the success probability depends on the device
    only through its action on sigma_A.
    """
    return canonical_det_test(t.omega, t.sigma_A)


def score_recipe(recipe: CanonicalTestRecipe, c: Channel) -> tuple[float, float]:
    """(score, success probability) of a device run through the recipe.

    The observable is the recipe's stored (possibly shifted) one; for a
    shifted deterministic recipe subtract ``recipe.offset`` from the
    score to recover the raw value.
    """
    d_a, r = recipe.input_state.dims
    d_out = recipe.observable.dims[0]
    if (c.dims_in, c.dims_out) != (d_a, d_out):
        raise DimensionError(
            f"channel {c.dims_in}->{c.dims_out} does not match recipe {d_a}->{d_out}"
        )
    psi = recipe.input_state.amplitudes.reshape(d_a, r)
    evolved = evolve_input(c, np.einsum("ar,bs->arbs", psi, psi.conj()))
    p = float(np.real(np.einsum("xrxr->", evolved)))
    check_success(p)
    o4 = recipe.observable.matrix.reshape(d_out, r, d_out, r)
    num = float(np.real(np.einsum("xrys,ysxr->", o4, evolved)))
    return num / p, p


def tests_equivalent_det(a: DetTest, b: DetTest) -> bool:
    """True iff two deterministic tests score every device identically."""
    om_a = performance_operator(a)
    om_b = performance_operator(b)
    if om_a.dims != om_b.dims:
        raise DimensionError(
            f"tests act on different spaces: {om_a.dims} vs {om_b.dims}"
        )
    return _agree(om_a.matrix, om_b.matrix)


def tests_equivalent_prob(a: ProbTest, b: ProbTest) -> bool:
    """True iff two probabilistic tests agree in score and success rate."""
    if a.omega.dims != b.omega.dims:
        raise DimensionError(
            f"tests act on different spaces: {a.omega.dims} vs {b.omega.dims}"
        )
    return _agree(a.omega.matrix, b.omega.matrix) and _agree(
        a.sigma_A.matrix, b.sigma_A.matrix
    )


def _agree(x: np.ndarray, y: np.ndarray) -> bool:
    """``x`` and ``y`` differ by :func:`within_recipe_tol` at their size."""
    scale = max(frobenius_norm(x), frobenius_norm(y))
    return within_recipe_tol(frobenius_norm(x - y), scale)


def fully_blackbox_test(
    omega: Operator,
    cfg: PnrConfig | None = None,
    rep: GroupRep | None = None,
) -> CanonicalTestRecipe:
    """Canonical test at the benchmark-minimising reference state.

    Shifts the performance operator by ``ppt_offset``, the least multiple
    of I that makes its partial transpose on the input factor positive, so
    the recipe's observable is positive (the shift is recorded, and the
    stored benchmark refers to the raw operator); finds the reference
    state minimising the measure-and-prepare threshold, and returns the
    canonical recipe at that state.  When the cut budget runs out, the
    recipe at the last round's state is the ``SearchError``'s ``best``.
    """
    shifted, offset = ppt_offset(omega)
    try:
        report, err = det_benchmark(shifted, cfg, rep=rep), None
    except SearchError as exc:
        report, err = exc.best, exc
    recipe = replace(
        canonical_det_test(shifted, report.tau_min),
        offset=offset,
        benchmark=report.value - offset * omega.dims[1],
    )
    if err is not None:
        raise SearchError(str(err), best=recipe) from err
    return recipe


def recipe_to_json(recipe: CanonicalTestRecipe) -> dict:
    return {
        "input_state": state_to_json(recipe.input_state),
        "observable": operator_to_json(recipe.observable),
        "tau_A": operator_to_json(recipe.tau_A),
        "offset": recipe.offset,
        "benchmark": recipe.benchmark,
    }


def recipe_from_json(data: dict) -> CanonicalTestRecipe:
    try:
        return CanonicalTestRecipe(
            input_state=state_from_json(data["input_state"]),
            observable=operator_from_json(data["observable"]),
            tau_A=operator_from_json(data["tau_A"]),
            offset=float(data.get("offset", 0.0)),
            benchmark=(
                None if data.get("benchmark") is None else float(data["benchmark"])
            ),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ContractError(f"malformed recipe payload: {err}") from err
