"""Shared random generators and the acceptance-line recorder."""

from __future__ import annotations

import numpy as np

from qbench.linalg import Operator
from qbench.model import Channel, Ensemble, fidelity_test

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(ok: bool, label: str, detail: str, seconds: float) -> bool:
    """Collect one pass/fail line; conftest prints them in the summary."""
    flag = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[{flag}] {label}: {detail} [{seconds:.1f}s]")
    return ok


def rand_density(d: int, rng: np.random.Generator, rank: int | None = None) -> Operator:
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return Operator(m / np.trace(m).real, (d,))


def rand_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def rand_channel(
    d_in: int,
    d_out: int,
    kraus: int,
    rng: np.random.Generator,
    weight: float = 1.0,
) -> Channel:
    """Random channel from a Haar-ish isometry; weight < 1 makes it lossy."""
    g = rng.normal(size=(kraus * d_out, d_in)) + 1j * rng.normal(
        size=(kraus * d_out, d_in)
    )
    v, _ = np.linalg.qr(g)
    ks = [np.sqrt(weight) * v[i * d_out : (i + 1) * d_out, :] for i in range(kraus)]
    return Channel(ks, trace_preserving=(weight == 1.0))


def rand_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def coherent_ring_omega(k: int, alpha: float) -> Operator:
    """Fidelity-test omega of the ring alpha * e^(2 pi i j / k), j < k, with
    uniform weights, reduced exactly to dims (k, k): the states are the
    columns of G^(1/2), G_jk = <alpha_j|alpha_k> their Gram matrix."""
    a = alpha * np.exp(2j * np.pi * np.arange(k) / k)
    gram = np.exp(-(np.abs(a[:, None]) ** 2 + np.abs(a[None, :]) ** 2) / 2 + a.conj()[:, None] * a[None, :])
    w, v = np.linalg.eigh(gram)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    states = [col / np.linalg.norm(col) for col in root.T]
    return fidelity_test(Ensemble(states, states, np.full(k, 1.0 / k))).omega
