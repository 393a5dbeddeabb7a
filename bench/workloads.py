"""Seeded job lists for the three workloads and the per-job reference checks.

A workload run is a sequence of passes.  Pass ``k`` of a run with seed ``s``
draws every random value from ``default_rng([s, k])``, writes the inputs the
program reads (``--test``/``--omega`` JSON, ``@kraus.json`` channel exports)
into its own directory, and returns the argv lists.  The *shape* of a pass
(job kinds, devices, cutoffs, dims, order) is the same for every seed and
every pass; only the values change.  That keeps the work per pass, and the
largest array sizes, the same from seed to seed.

Each job is checked against a reference that does not come from the report
being checked.  A failure whose signature matches one of the defects in
``KNOWN_DEFECTS`` is counted as failed but tagged with that defect, so a
later change that fixes it shows as fewer failures, and any other failure
marks the run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qbench.canonical import canonical_det_test
from qbench.cv import FockCutoff, attenuator_device
from qbench.linalg import Operator, operator_to_json
from qbench.model import channel_to_json, det_test_to_json

WORKLOADS = ("cv-pure", "cv-noisy", "thresholds")

# Mirrors qbench.cli.CV_CERTIFY_TOL; kept here so that loosening the CLI's
# cap cannot loosen the benchmark's check.
CV_CERTIFY_TOL = 1e-3
BUILTIN_TOL = 1e-6
CANONICAL_TOL = 1e-9
BRACKET_TOL = 1e-9

# Independently established bracket on the item-1 reproducer's threshold:
# an explicit measure-and-prepare channel scores 0.7519 and the grid oracle
# certifies a product numerical range of at most 0.8401 at another tau.
REPRODUCER_BRACKET = (0.7519, 0.8401)

# Signature -> fix for every failure the seed is known to produce.
KNOWN_DEFECTS = {
    "nelder-mead-maxfev": "det_benchmark: replace Nelder-Mead over tau by "
    "Kelley cutting planes with an LP master problem (ROADMAP item 1)",
    "canonical-square-check-channel": "cli._check_channel: build the check "
    "channel from d_in to d_out (omega.dims[1] -> omega.dims[0]) instead of "
    "a square one on omega.dims[1]",
    "det-certified-outside-bracket": "det_benchmark: report a lower bound "
    "scored from an explicit channel and an upper bound from a certified "
    "PNR bound (ROADMAP item 1)",
}

# Fock cutoffs of the scenario groups in one cv-pure pass, and the squeezer
# route each group is drawn for.  c = g / sqrt(lam + 1) picks the route:
# the truncated squeezer needs c^(2 n_max) <= 1e-9, which c <= 0.6 meets at
# every cutoff here, while c in [0.82, 0.95] at n_max = 40 does not, so
# those jobs take the quadrature pair observable.
CV_PURE_GROUPS = ((30, "stage"), (40, "pair"), (50, "stage"))

# (device kind, cutoff, conjugate) of the cv-noisy jobs in one pass.
# attenuator, scale and heterodyne-mp have many Kraus operators, so with the
# 528-operator noise channel they take the density route, whose cost is set
# by the cutoff; identity has one and takes the expanded-noise vector route.
# Four density jobs at cutoff 20 keep the median job inside one cost class.
CV_NOISY_JOBS = (
    ("identity", 22, False),
    ("attenuator", 20, False),
    ("heterodyne-mp", 20, False),
    ("attenuator", 24, False),
    ("identity", 22, True),
    ("scale", 20, False),
    ("heterodyne-mp", 20, True),
    ("attenuator", 24, True),
)

# Output/input dims of the tests in one thresholds pass.  A pass runs the
# deterministic benchmark once per entry of DET_DIMS plus the reproducer,
# and before each of those five det jobs one block of cheap jobs: the
# builtins, an --omega test and its canonical recipe per OMEGA_DIMS entry,
# and a canonical recipe of a fresh --test per DET_DIMS entry.  Five blocks
# give the cheap jobs, where CLI, canonical and model costs show, five
# samples each per run.
DET_DIMS = ((2, 2), (3, 2), (2, 3), (3, 3))
# Nelder-Mead's run time on a det test varies up to 10x from draw to draw
# (1-10 s at qubit input, 5-16 s at qutrit input), which alone spread
# wall_s past any usable bound, so the det benchmark inputs are fixed
# draws, like the reproducer; the seed still draws every canonical --test
# input.  Generator seed 2 is the first after the reproducer's; on the seed
# commit its qutrit-input draws exceed maxfev and its qubit-input ones
# converge.
FIXED_DET_SEED = 2
OMEGA_DIMS = ((2, 2), (2, 4), (4, 4), (8, 8))
BUILTINS = (
    ("teleport:2", 2.0 / 3.0),
    ("teleport:3", 0.5),
    ("teleport:4", 0.4),
    ("chsh", math.sqrt(2.0)),
    ("equator:3", 0.75),
    ("equator:7", 0.75),
)


@dataclass
class Job:
    """One ``qbench.cli.main(argv)`` call and what its report must satisfy."""

    kind: str
    argv: list[str]
    ref: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    err: float | None = None  # deviation from the reference, when one exists
    defect: str | None = None  # KNOWN_DEFECTS key when the failure matches one
    reason: str = ""


# ---------------------------------------------------------------------------
# input generation


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _gram(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g @ g.conj().T


def ppt_omega(rng: np.random.Generator, d_out: int, d_in: int) -> Operator:
    """Separable (hence PPT) performance operator: three product terms."""
    m = sum(np.kron(_gram(rng, d_out), _gram(rng, d_in)) for _ in range(3))
    return Operator(m / np.trace(m).real, (d_out, d_in))


def reproducer_omega() -> Operator:
    """The ROADMAP item-1 reproducer: ppt_omega on dims (2, 3), rng seed 1."""
    return ppt_omega(np.random.default_rng(1), 2, 3)


def _prob_test(rng: np.random.Generator, d_out: int, d_in: int) -> dict:
    omega = _gram(rng, d_out * d_in)
    sigma = _gram(rng, d_in)
    return {
        "omega": operator_to_json(Operator(omega / np.trace(omega).real, (d_out, d_in))),
        "sigma_A": operator_to_json(Operator(sigma / np.trace(sigma).real, (d_in,))),
    }


def _cv_job(device: str, g: float, lam: float, cutoff: int, mu: float | None = None,
            conjugate: bool = False) -> Job:
    argv = ["cv", "--device", device, "--g", _fmt(g), "--lambda", _fmt(lam),
            "--cutoff", str(cutoff)]
    if mu is not None:
        argv += ["--mu", _fmt(mu)]
    if conjugate:
        argv.append("--conjugate")
    return Job("cv", argv)


def _cv_pure(rng: np.random.Generator, workdir: Path) -> list[Job]:
    jobs = []
    for n_max, route in CV_PURE_GROUPS:
        lam = rng.uniform(1.0, 2.5)
        c = rng.uniform(0.82, 0.95) if route == "pair" else rng.uniform(0.3, 0.6)
        g = c * math.sqrt(lam + 1.0)
        t = rng.uniform(0.5, 0.95)
        q = rng.uniform(0.5, 1.2)
        lossy = attenuator_device(rng.uniform(0.5, 0.95)).materialize(FockCutoff(n_max))
        kraus = _write(workdir / f"kraus{n_max}.json", channel_to_json(lossy))
        for device in ("identity", f"attenuator:{_fmt(t)}", f"scale:{_fmt(q)}",
                       "heterodyne-mp", "vacuum", f"@{kraus}"):
            jobs.append(_cv_job(device, g, lam, n_max))
        for device in ("identity", f"attenuator:{_fmt(t)}", "heterodyne-mp"):
            jobs.append(_cv_job(device, g, lam, n_max, conjugate=True))
    return jobs


def _cv_noisy(rng: np.random.Generator) -> list[Job]:
    jobs = []
    for kind, n_max, conjugate in CV_NOISY_JOBS:
        # lam, mu >= 4 keep the tmsv parameter x <= 1/3, whose leak x^n_max
        # stays below the 1e-8 cutoff tolerance from n_max = 17 up; with
        # g <= 1.5 the mixed-branch c = g k stays below 0.6 (stage route)
        lam = rng.uniform(4.0, 8.0)
        mu = rng.uniform(4.0, 8.0)
        g = rng.uniform(0.8, 1.5)
        device = {
            "attenuator": f"attenuator:{_fmt(rng.uniform(0.5, 0.95))}",
            "scale": f"scale:{_fmt(rng.uniform(0.6, 1.2))}",
        }.get(kind, kind)
        jobs.append(_cv_job(device, g, lam, n_max, mu=mu, conjugate=conjugate))
    return jobs


def _write_test(omega: Operator, path: Path) -> str:
    """Write the deterministic test of ``omega``'s canonical recipe."""
    return _write(path, det_test_to_json(canonical_det_test(omega).as_det_test()))


def _thresholds(rng: np.random.Generator, workdir: Path) -> list[Job]:
    det = [
        Job("det", ["benchmark", "--test", _write_test(
            ppt_omega(np.random.default_rng(FIXED_DET_SEED), d_out, d_in),
            workdir / f"det{d_out}x{d_in}.json")])
        for d_out, d_in in DET_DIMS
    ]
    det.append(Job("det", ["benchmark", "--test", _write_test(
        reproducer_omega(), workdir / "reproducer.json")], {"bracket": REPRODUCER_BRACKET}))
    jobs = []
    for block, det_job in enumerate(det):
        jobs += [
            Job("builtin", ["benchmark", "--builtin", name], {"value": value})
            for name, value in BUILTINS
        ]
        for d_out, d_in in OMEGA_DIMS:
            path = _write(workdir / f"omega{block}_{d_out}x{d_in}.json",
                          _prob_test(rng, d_out, d_in))
            jobs.append(Job("omega", ["benchmark", "--omega", path], {"file": path}))
            jobs.append(Job("canonical", ["canonical", "--omega", path],
                            {"dims": (d_out, d_in)}))
        for d_out, d_in in DET_DIMS:
            path = _write_test(ppt_omega(rng, d_out, d_in),
                               workdir / f"test{block}_{d_out}x{d_in}.json")
            jobs.append(Job("canonical", ["canonical", "--test", path],
                            {"dims": (d_out, d_in)}))
        jobs.append(det_job)
    return jobs


def make_pass(workload: str, seed: int, index: int, workdir: Path) -> list[Job]:
    """Job list of pass ``index``; inputs are written under ``workdir``."""
    rng = np.random.default_rng([seed, index])
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cv-pure":
        return _cv_pure(rng, workdir)
    if workload == "cv-noisy":
        return _cv_noisy(rng)
    if workload == "thresholds":
        return _thresholds(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(workload: str) -> list[Job]:
    """Small untimed jobs that take each code path's first-call costs."""
    if workload == "thresholds":
        return [Job("builtin", ["benchmark", "--builtin", "chsh"], {"value": math.sqrt(2.0)})]
    return [Job("cv", ["cv", "--device", "attenuator:0.8", "--g", "0.5", "--lambda", "3",
                       "--cutoff", "16"])]


# ---------------------------------------------------------------------------
# reference checks


def _spectral_bracket(path: str) -> tuple[float, float]:
    """Independent bounds on a probabilistic test's threshold.

    The threshold is the product numerical range of
    M = (I ⊗ sigma^{-1/2}) omega (I ⊗ sigma^{-1/2}).  Any product basis
    vector is feasible, so the largest diagonal entry of M bounds it from
    below; its largest eigenvalue bounds it from above.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    d_out, d_in = data["omega"]["dims"]
    omega = np.asarray(data["omega"]["re"]) + 1j * np.asarray(data["omega"]["im"])
    sigma = np.asarray(data["sigma_A"]["re"]) + 1j * np.asarray(data["sigma_A"]["im"])
    w, v = np.linalg.eigh(sigma)
    root = np.kron(np.eye(d_out), (v / np.sqrt(w)) @ v.conj().T)
    m = root @ omega @ root
    m = 0.5 * (m + m.conj().T)
    return float(np.max(np.diag(m).real)), float(np.linalg.eigvalsh(m)[-1])


def check(job: Job, code: int | None, report: dict | None, stderr: str) -> Outcome:
    """Judge one job's exit code and report against its reference."""
    if code is None:
        return Outcome(False, reason=stderr or "raised")
    if job.kind == "det" and code == 2 and "minimisation stagnated" in stderr:
        return Outcome(False, defect="nelder-mead-maxfev", reason=stderr.strip())
    if job.kind == "canonical" and code == 2:
        d_out, d_in = job.ref["dims"]
        if d_out != d_in and ("channel dims do not match" in stderr
                              or "dims mismatch" in stderr):
            return Outcome(False, defect="canonical-square-check-channel",
                           reason=stderr.strip())
    if code != 0 or report is None:
        return Outcome(False, reason=f"exit {code}: {stderr.strip()}")
    if not report.get("certified"):
        return Outcome(False, reason="exit 0 but not certified")

    if job.kind == "cv":
        if report.get("score") is None:
            return Outcome(False, reason=f"no setup score: {report.get('note')}")
        err = abs(report["score"] - report["oracle"])
        return Outcome(err <= CV_CERTIFY_TOL, err, reason=f"|score - oracle| = {err:.3e}")
    if job.kind == "builtin":
        err = abs(report["value"] - job.ref["value"])
        return Outcome(err <= BUILTIN_TOL, err, reason=f"|value - closed form| = {err:.3e}")
    if job.kind == "canonical":
        err = report["round_trip_residual"]
        if report.get("check") is not None:
            err = max(err, report["check"]["deviation"])
        return Outcome(err <= CANONICAL_TOL, err, reason=f"residual/deviation {err:.3e}")

    lower, upper = report["lower"], report["upper"]
    if lower > upper + BRACKET_TOL:
        return Outcome(False, reason=f"inverted bracket [{lower}, {upper}]")
    if job.kind == "omega":
        lo, hi = _spectral_bracket(job.ref["file"])
        if report["value"] < lo - BRACKET_TOL or report["value"] > hi + BRACKET_TOL:
            return Outcome(False, reason=f"value {report['value']} outside [{lo}, {hi}]")
        return Outcome(True)
    if "bracket" in job.ref:
        lo, hi = job.ref["bracket"]
        # a valid bracket must contain the true threshold, which lies in [lo, hi]
        if lower > hi or upper < lo:
            return Outcome(False, defect="det-certified-outside-bracket",
                           reason=f"certified [{lower}, {upper}] misses [{lo}, {hi}]")
    return Outcome(True)
