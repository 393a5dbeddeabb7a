"""Dense complex linear algebra over tensor-product spaces.

Operators carry an explicit list of subsystem dimensions; the leftmost
subsystem is the slowest-varying index (plain Kronecker order). Nothing is
ever reordered implicitly — callers that need a different system order use
:func:`permute_systems`.

All values are immutable after construction and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

# Default tolerances, shared repo-wide.
HERM_TOL = 1e-9        # relative Frobenius hermiticity tolerance
RANK_TOL = 1e-12       # eigenvalues below RANK_TOL * lambda_max count as zero
EIG_RESIDUAL_TOL = 1e-10
NORM_TOL = 1e-9        # absolute deviation of a state's norm from 1


def frobenius_norm(arr: np.ndarray) -> float:
    """Frobenius norm of an array of any shape; ``inf``, without numpy's
    overflow warning, where the sum of squares overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(arr)


def check_finite(arr: np.ndarray, what: str) -> None:
    """Refuse with :class:`ContractError` an array whose Frobenius norm is not
    finite: a NaN or infinite entry, or entries so large (past ~1.3e154) that
    the norm overflows, where no ``TOL * max(1, norm)`` rule means anything.
    The one admission rule for every array a value type or channel keeps."""
    if not np.isfinite(frobenius_norm(arr)):
        raise ContractError(f"{what} must have a finite Frobenius norm (no NaN/Inf, no entry past ~1e154)")


def _as_complex(a) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    check_finite(arr, "a matrix or vector")
    return arr


@dataclass(frozen=True)
class Operator:
    """A dense complex square matrix on a tensor product of subsystems.

    Parameters
    ----------
    matrix:
        Square complex matrix of side ``prod(dims)``.
    dims:
        Ordered subsystem dimensions, leftmost slowest-varying.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, matrix, dims: Sequence[int]):
        mat = _as_complex(matrix)
        dims = tuple(int(d) for d in dims)
        if any(d <= 0 for d in dims):
            raise DimensionError(f"subsystem dimensions must be positive, got {dims}")
        side = int(np.prod(dims))
        if mat.ndim != 2 or mat.shape != (side, side):
            raise DimensionError(
                f"matrix shape {mat.shape} does not match dims {dims} (side {side})"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def side(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self) -> bool:
        scale = max(np.linalg.norm(self.matrix), 1.0)
        return frobenius_norm(self.matrix - self.matrix.conj().T) <= HERM_TOL * scale

    def is_psd(self) -> bool:
        if not self.is_hermitian():
            return False
        evals = np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))
        scale = max(abs(evals[-1]), 1.0)
        return evals[0] >= -HERM_TOL * scale

    def is_unit_trace(self) -> bool:
        return abs(np.trace(self.matrix) - 1.0) <= HERM_TOL


@dataclass(frozen=True)
class PureState:
    """A normalized state vector on a tensor product of subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, amplitudes, dims: Sequence[int]):
        vec = _as_complex(amplitudes).reshape(-1)
        dims = tuple(int(d) for d in dims)
        if any(d <= 0 for d in dims):
            raise DimensionError(f"subsystem dimensions must be positive, got {dims}")
        if vec.size != int(np.prod(dims)):
            raise DimensionError(
                f"vector length {vec.size} does not match dims {dims}"
            )
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ContractError(f"state norm {nrm} deviates from 1 beyond {NORM_TOL}")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)
        object.__setattr__(self, "dims", dims)

    def density(self) -> Operator:
        v = self.amplitudes
        return Operator(np.outer(v, v.conj()), self.dims)


# ---------------------------------------------------------------------------
# core tensor operations
# ---------------------------------------------------------------------------

def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker product; ``a`` becomes the slowest-varying factor."""
    return Operator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def _check_indices(idx: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    idx = tuple(int(i) for i in idx)
    if len(idx) == 0:
        raise DimensionError(f"{what} must not be empty")
    if len(set(idx)) != len(idx):
        raise DimensionError(f"{what} contains duplicates: {idx}")
    if any(i < 0 or i >= n for i in idx):
        raise DimensionError(f"{what} {idx} out of range for {n} subsystems")
    return idx


def partial_trace(m: Operator, keep: Iterable[int]) -> Operator:
    """Trace out every subsystem not listed in ``keep``.

    The result's dims follow the order given in ``keep``.
    """
    dims, n = m.dims, len(m.dims)
    keep = _check_indices(keep, n, "keep")
    keep_sorted = sorted(keep)
    t = m.matrix.reshape(dims + dims)
    # trace out the complement, highest axis first so positions stay valid
    for i in reversed([i for i in range(n) if i not in keep_sorted]):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    side = int(np.prod([dims[i] for i in keep_sorted]))
    out = Operator(t.reshape(side, side), [dims[i] for i in keep_sorted])
    if keep == tuple(keep_sorted):
        return out
    return permute_systems(out, np.argsort(np.argsort(keep)))  # sorted positions to requested order


def partial_transpose(m: Operator, sys: int) -> Operator:
    """Transpose subsystem ``sys``; an involution."""
    n = len(m.dims)
    if sys < 0 or sys >= n:
        raise DimensionError(f"sys {sys} out of range for {n} subsystems")
    t = np.swapaxes(m.matrix.reshape(m.dims + m.dims), sys, sys + n)
    return Operator(t.reshape(m.side, m.side), m.dims)


def permute_systems(m: Operator, perm: Sequence[int]) -> Operator:
    """Reorder subsystems: new position i holds old subsystem perm[i]."""
    n = len(m.dims)
    perm = _check_indices(perm, n, "perm")
    if len(perm) != n:
        raise DimensionError(f"perm {perm} must cover all {n} subsystems")
    axes = list(perm) + [p + n for p in perm]
    t = m.matrix.reshape(m.dims + m.dims).transpose(axes)
    return Operator(t.reshape(m.side, m.side), tuple(m.dims[p] for p in perm))


# ---------------------------------------------------------------------------
# spectral operations
# ---------------------------------------------------------------------------

def hermitian_eig(m: Operator):
    """Eigendecomposition of a Hermitian operator.

    Returns
    -------
    (w, v):
        ``w`` ascending real eigenvalues, ``v`` unitary with eigenvectors in
        columns. Reconstruction ``v @ diag(w) @ v†`` is checked against the
        input to ``EIG_RESIDUAL_TOL`` (relative Frobenius).
    """
    if not m.is_hermitian():
        raise ContractError("hermitian_eig requires a Hermitian matrix")
    mat = m.matrix
    herm = 0.5 * (mat + mat.conj().T)
    w, v = np.linalg.eigh(herm)
    residual = np.linalg.norm((v * w) @ v.conj().T - herm)
    if residual > EIG_RESIDUAL_TOL * max(np.linalg.norm(mat), 1.0):
        raise ArithmeticError(
            f"eigendecomposition residual {residual:.3e} exceeds tolerance"
        )
    return w, v


def _support_mask(eigenvalues: np.ndarray) -> np.ndarray:
    # signed: an eigenvalue at or below the cutoff, negative ones included,
    # is kernel, so no power of the support can meet a non-positive value
    w = np.asarray(eigenvalues)
    return w > RANK_TOL * float(np.max(np.abs(w), initial=0.0))


def support_rank(eigenvalues: np.ndarray) -> int:
    """Number of eigenvalues above the relative rank cutoff."""
    return int(np.count_nonzero(_support_mask(eigenvalues)))


def purify(rho: Operator) -> PureState:
    """Purification with a minimal reference system.

    The output lives on dims ``(d, r)`` with ``r`` the numerical rank; the
    reference-side Schmidt basis is the standard basis ordered by descending
    eigenvalue, so the marginal on the first factor reproduces ``rho``
    itself, whose trace may miss one by up to ``HERM_TOL``.
    """
    if not rho.is_psd():
        raise ContractError("purify requires a PSD operator")
    if not rho.is_unit_trace():
        raise ContractError("purify requires a unit-trace operator")
    d = rho.side
    # eigh of the stored matrix: a symmetrized copy can turn the basis of a
    # degenerate block.  The stable descending sort keeps degenerate
    # eigenvectors in natural order, so a maximally mixed rho pairs along
    # the computational basis.
    w, v = np.linalg.eigh(rho.matrix)
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    r = support_rank(w)
    if r == 0:
        raise ContractError("cannot purify an operator with empty support")
    vec = (v[:, :r] * np.sqrt(w[:r])).reshape(-1)  # sum_n sqrt(l_n) |phi_n>|n>
    state = PureState(vec, (d, r))
    marginal = partial_trace(state.density(), (0,)).matrix
    gap = frobenius_norm(marginal - rho.matrix)
    if gap > EIG_RESIDUAL_TOL * max(1.0, np.linalg.norm(rho.matrix)):
        raise ArithmeticError(f"purification marginal deviates from the input by {gap:.3e}")
    return state


def psd_power_on_support(mat: np.ndarray, power: float) -> np.ndarray:
    """Matrix power of a PSD matrix restricted to its support (pseudo-inverse semantics)."""
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    keep = _support_mask(w)
    powered = np.zeros_like(w)
    powered[keep] = w[keep] ** power
    return (v * powered) @ v.conj().T


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _complex_to_json(dims: tuple[int, ...], arr: np.ndarray) -> dict:
    return {"dims": list(dims), "re": arr.real.tolist(), "im": arr.imag.tolist()}


def _complex_from_json(data: dict, what: str) -> tuple[np.ndarray, Sequence[int]]:
    try:
        dims = data["dims"]
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"malformed {what} JSON: {exc}") from exc
    # bool is an int subclass, but true is not a dimension
    if not (isinstance(dims, list) and dims and all(type(d) is int and d > 0 for d in dims)):
        raise ContractError(
            f"malformed {what} JSON: dims must be a non-empty list of positive "
            f"integers, got {dims!r}"
        )
    if re.shape != im.shape:
        raise ContractError(f"{what} JSON re/im shapes differ")
    return re + 1j * im, dims


def operator_to_json(m: Operator) -> dict:
    """Row-major {"dims", "re", "im"} encoding; NaN/Inf are rejected."""
    return _complex_to_json(m.dims, m.matrix)


def operator_from_json(data: dict) -> Operator:
    return Operator(*_complex_from_json(data, "operator"))


def state_to_json(s: PureState) -> dict:
    return _complex_to_json(s.dims, s.amplitudes)


def state_from_json(data: dict) -> PureState:
    return PureState(*_complex_from_json(data, "state"))
