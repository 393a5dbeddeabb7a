"""Built-in tests, ensembles, and group representations.

Three finite-dimensional worked examples are provided ready-made:

* ``teleport_test(d)`` — uniform fidelity test over all pure states,
  realised exactly by the normalised symmetric projector.
* ``chsh_test()`` — correlation game on rotated Pauli observables whose
  performance operator has a negative partial transpose.
* ``equator_test(N)`` — phase-covariant fidelity test over N equally
  spaced equator states of a qubit.

Alongside them live the unitary designs and finite groups used for
covariant benchmarks: the octahedron (qubit) and mutually-unbiased-bases
(qutrit) 2-designs, discrete Heisenberg-Weyl representations, rotated
Pauli frames, and explicit Clifford group lists for d = 2, 3.
"""

from __future__ import annotations

import numpy as np

from .engine import GroupRep
from .errors import ContractError
from .linalg import Operator
from .model import Ensemble, ProbTest, check_bytes, fidelity_test

# two unitaries are one Clifford up to phase when |tr(u† v)| is within this of d
PHASE_MATCH_TOL = 1e-6
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# peak bytes per d**4 of the teleport test's threshold search, measured with
# tracemalloc on `qbench benchmark --builtin teleport:d`: 112.2 at d = 16, 20
TELEPORT_PEAK_PER_D4 = 112
# peak bytes per point of the n-point equator ensemble and its fidelity test,
# measured with tracemalloc: 1001.5-1008.3 at n = 10**3 to 5 * 10**4
EQUATOR_PEAK_PER_POINT = 1010


# ---------------------------------------------------------------------------
# worked tests


def swap_operator(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def symmetric_projector(d: int) -> np.ndarray:
    return 0.5 * (np.eye(d * d) + swap_operator(d))


def teleport_test(d: int = 2) -> ProbTest:
    """Uniform fidelity test over pure states in dimension d.

    The Haar average of |psi><psi| ⊗ |psi><psi| is the symmetric
    projector normalised to unit trace, so the test needs no explicit
    ensemble.  Reference input state: maximally mixed.
    """
    if d < 2:
        raise ContractError(f"teleport test needs dimension >= 2, got {d}")
    check_bytes(TELEPORT_PEAK_PER_D4 * d**4, f"the teleport test's threshold at d={d}")
    p_sym = symmetric_projector(d)
    omega = Operator(p_sym / np.trace(p_sym).real, (d, d))
    sigma = Operator(np.eye(d) / d, (d,))
    return ProbTest(omega, sigma)


def teleport_benchmark_exact(d: int) -> float:
    """Deterministic threshold of the uniform fidelity test: 2 / (d + 1)."""
    return 2.0 / (d + 1)


def tilde_paulis() -> tuple[np.ndarray, np.ndarray]:
    """The rotated frame (Z + X)/sqrt(2), (Z - X)/sqrt(2)."""
    x_t = (PAULI_Z + PAULI_X) / np.sqrt(2.0)
    z_t = (PAULI_Z - PAULI_X) / np.sqrt(2.0)
    return x_t, z_t


def chsh_test() -> ProbTest:
    """Correlation test whose score reproduces the CHSH value over 2.

    Performance operator (X~ ⊗ X~ + Z~ ⊗ Z~)/sqrt(2) in the rotated
    Pauli frame; eigenvalues {±sqrt(2), 0, 0}, equal to its own partial
    transpose, and not PPT.
    """
    x_t, z_t = tilde_paulis()
    omega = (np.kron(x_t, x_t) + np.kron(z_t, z_t)) / np.sqrt(2.0)
    return ProbTest(Operator(omega, (2, 2)), Operator(np.eye(2) / 2, (2,)))


def equator_states(n: int) -> list[np.ndarray]:
    if n < 3:
        raise ContractError(f"equator ensemble needs at least 3 phases, got {n}")
    check_bytes(EQUATOR_PEAK_PER_POINT * n, f"the equator ensemble at n={n}")
    out = []
    for k in range(n):
        phase = np.exp(2j * np.pi * k / n)
        out.append(np.array([1.0, phase], dtype=complex) / np.sqrt(2.0))
    return out


def equator_ensemble(n: int = 3) -> Ensemble:
    """Uniform fidelity ensemble over n equally spaced equator states."""
    vecs = equator_states(n)
    states = [np.outer(v, v.conj()) for v in vecs]
    return Ensemble(states, vecs, [1.0 / n] * n)


def equator_test(n: int = 3) -> ProbTest:
    """Fidelity test for the equator ensemble.

    For n >= 3 the performance operator is independent of n: the phase
    averages kill every harmonic a qubit pair can see beyond the first.  So
    the n = 3 test is built for every such n, at the same cost.
    """
    return fidelity_test(equator_ensemble(min(n, 3)))  # n < 3 is refused there


# ---------------------------------------------------------------------------
# group representations


def _paired(us: list[np.ndarray]) -> GroupRep:
    return GroupRep([(u, u) for u in us])


def pauli_rep() -> GroupRep:
    """The qubit Pauli frame, acting identically on both factors."""
    return _paired([np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z])


def tilde_pauli_rep() -> GroupRep:
    """Pauli frame rotated by 45 degrees about Y; leaves chsh_test covariant."""
    x_t, z_t = tilde_paulis()
    return _paired([np.eye(2, dtype=complex), x_t, PAULI_Y, z_t])


def heisenberg_weyl_rep(d: int) -> GroupRep:
    """Discrete shift-and-clock group on d levels, acting as U ⊗ U.

    Irreducible 1-design for every d; the natural covariance group of
    the uniform fidelity test.
    """
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    clock = np.diag(omega ** np.arange(d))
    us = []
    for a in range(d):
        for b in range(d):
            us.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return _paired(us)


def clifford_group(d: int) -> list[np.ndarray]:
    """Single-system Clifford group modulo global phase, as explicit matrices.

    Breadth-first closure from the Fourier and phase gates.  Sizes: 24
    for d = 2, 216 for d = 3.  Both lists are unitary 2-designs.
    """
    if d == 2:
        gens = [
            np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
            np.diag([1.0, 1.0j]),
        ]
    elif d == 3:
        w = np.exp(2j * np.pi / 3)
        fourier = np.array(
            [[w ** (j * k) for k in range(3)] for j in range(3)], dtype=complex
        ) / np.sqrt(3.0)
        gens = [fourier, np.diag([1.0, 1.0, w])]
    else:
        raise ContractError(f"explicit Clifford lists cover d in (2, 3), got {d}")

    # Equality modulo phase: |tr(u† v)| == d.  Buckets keyed by entry
    # magnitudes (phase-invariant) keep the pairwise checks local.
    buckets: dict[bytes, list[np.ndarray]] = {}
    elements: list[np.ndarray] = []

    def add(u: np.ndarray) -> bool:
        key = np.round(np.abs(u), 6).tobytes()
        bucket = buckets.setdefault(key, [])
        for v in bucket:
            if abs(abs(np.trace(u.conj().T @ v)) - d) < PHASE_MATCH_TOL:
                return False
        bucket.append(u)
        elements.append(u)
        return True

    frontier = [np.eye(d, dtype=complex)]
    add(frontier[0])
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = g @ u
                if add(v):
                    nxt.append(v)
        frontier = nxt
    return elements


def clifford_rep(d: int) -> GroupRep:
    """Uniform representation over the Clifford list, acting as U ⊗ U."""
    return _paired(clifford_group(d))


# ---------------------------------------------------------------------------
# state 2-designs


def qubit_design_states() -> list[np.ndarray]:
    """The six octahedron states: eigenbases of X, Y, Z."""
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
        np.array([s, s], dtype=complex),
        np.array([s, -s], dtype=complex),
        np.array([s, 1j * s], dtype=complex),
        np.array([s, -1j * s], dtype=complex),
    ]


def qutrit_design_states() -> list[np.ndarray]:
    """Twelve states from four mutually unbiased bases of a qutrit."""
    w = np.exp(2j * np.pi / 3)
    states = [np.eye(3, dtype=complex)[j] for j in range(3)]
    for b in range(3):
        for j in range(3):
            v = np.array([w ** ((b * k * k + j * k) % 3) for k in range(3)], dtype=complex)
            states.append(v / np.sqrt(3.0))
    return states


def design_states(d: int) -> list[np.ndarray]:
    if d == 2:
        return qubit_design_states()
    if d == 3:
        return qutrit_design_states()
    raise ContractError(f"state 2-designs provided for d in (2, 3), got {d}")


def design_ensemble(d: int) -> Ensemble:
    """Identity-target fidelity ensemble over a state 2-design.

    Its fidelity test reproduces the uniform (Haar) test exactly, because
    the performance operator is quadratic in |psi><psi|.
    """
    vecs = design_states(d)
    states = [np.outer(v, v.conj()) for v in vecs]
    return Ensemble(states, vecs, [1.0 / len(vecs)] * len(vecs))
