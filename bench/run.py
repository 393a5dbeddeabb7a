"""qbench benchmark: one command, three workloads, per-job reference checks.

    python3 bench/run.py --workload cv-pure --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``qbench`` from its
``src/``.  One process, one client, closed loop: each job is an in-process
``qbench.cli.main(argv)`` call, and the next starts when it returns.  Jobs
come in passes (see ``workloads.py``); passes run until ``--seconds`` have
elapsed, and the pass in progress is finished.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
module's public functions (``spans.py``) and prints per-layer metrics.
Either way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the full record (per
job times and outcomes, provenance, spans) is written to
``bench/results/BENCH_<workload>_s<seed>_t<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

# Single-threaded BLAS baseline: the cap must be in the environment before
# numpy first loads, in this process and in the set-up children.
os.environ["QBENCH_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_RUNS = 5


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (SRC / "qbench" / "cli.py").is_file():
    _fail(f"no qbench sources under {SRC}; run from a qbench checkout")
sys.path.insert(0, str(SRC))

import qbench.cli  # noqa: E402  (applies the thread cap before numpy loads)
import numpy as np  # noqa: E402
import scipy  # noqa: E402

if Path(qbench.cli.__file__).resolve().parent != SRC / "qbench":
    _fail(f"qbench imported from {qbench.cli.__file__}, not from {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
                    "peak_rss_mb": "MB", "fail_frac": "fraction", "max_err": "abs"}
# The end-to-end metrics of the result line; the other three are printed
# above it and reported by the traced run (see README.md for why).
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> list[float]:
    """Wall times of ``import qbench.cli`` in fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import qbench.cli"],
                       env=child_env(), cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return times


def call_cli(argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run one job; returns (seconds, exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = qbench.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a job that raises is a failed job, not a dead run
            traceback.print_exc()
        seconds = perf_counter() - t0
    return seconds, code, out.getvalue(), err.getvalue()


def run_jobs(jobs: list[workloads.Job], tracer: spans.Tracer | None = None,
             first_id: int = 0) -> tuple[list[dict], float]:
    """Run jobs back to back, then check them; returns (records, wall seconds)."""
    raw = []
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = perf_counter()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = first_id + i
            raw.append(call_cli(job.argv))
        wall = perf_counter() - t0
    records = []
    for i, (job, (seconds, code, out, err)) in enumerate(zip(jobs, raw)):
        report = json.loads(out) if out.startswith("{") else None
        outcome = workloads.check(job, code, report, err)
        records.append({
            "id": first_id + i, "kind": job.kind, "argv": job.argv,
            "seconds": seconds, "exit": code, "ok": outcome.ok, "err": outcome.err,
            "defect": outcome.defect, "reason": outcome.reason, "report": report,
        })
    return records, wall


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "QBENCH_THREADS": os.environ["QBENCH_THREADS"],
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    label = f"{args.workload}_s{args.seed}_t{args.trace}"
    workdir = BENCH_DIR / ".work" / f"{label}_{os.getpid()}"
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)

    setup_times = [] if args.trace else measure_setup()
    layer: dict[str, float] = {}
    if args.trace:
        layer.update(spans.import_times(sys.executable, child_env(), str(ROOT)))

    run_jobs(workloads.warmup_jobs(args.workload))
    tracer = spans.Tracer() if args.trace else None
    records: list[dict] = []
    passes: list[dict] = []
    t_start = perf_counter()
    try:
        while not passes or perf_counter() - t_start < args.seconds:
            k = len(passes)
            jobs = workloads.make_pass(args.workload, args.seed, k, workdir / f"pass{k}")
            recs, wall = run_jobs(jobs, tracer, first_id=len(records))
            records += recs
            passes.append({"index": k, "jobs": len(recs), "wall_s": wall})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [r["seconds"] for r in records]
    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed if r["defect"] is None]
    errs = [r["err"] for r in records if r["err"] is not None]
    summary = {
        "setup_s": median(setup_times) if setup_times else None,
        "wall_s": median(p["wall_s"] for p in passes),
        "job_p50_s": median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": len(failed) / len(records),
        "max_err": max(errs) if errs else 0.0,
    }
    if tracer is not None:
        wall_total = sum(p["wall_s"] for p in passes)
        harness = wall_total - sum(times)
        top = tracer.top_level_s()
        layer.update(tracer.layer_metrics())
        layer.update({
            "trace.wall_s": wall_total,
            "trace.top_span_s": top,
            "trace.harness_s": harness,
            "trace.unaccounted_frac": (wall_total - harness - top) / wall_total,
            "trace.overhead_s": tracer.overhead_s,
            "job_p50_s": summary["job_p50_s"],
            "fail_frac": summary["fail_frac"],
            "max_err": summary["max_err"],
        })

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed),
        "summary": summary, "setup_samples_s": setup_times,
        "passes": passes, "job_count": len(records), "layer": layer,
        "defects": {d: sum(r["defect"] == d for r in failed)
                    for d in workloads.KNOWN_DEFECTS},
        "fixes": workloads.KNOWN_DEFECTS,
        "jobs": [{k: v for k, v in r.items() if k != "report"} for r in records],
        "spans": tracer.dump() if tracer is not None else None,
    }
    (results_dir / f"BENCH_{label}.json").write_text(json.dumps(result, indent=1))

    for r in failed:
        tag = r["defect"] or "UNEXPECTED"
        print(f"failed job {r['id']} [{tag}] {' '.join(r['argv'])}: {r['reason'][:160]}")
    print(f"{args.workload} seed {args.seed}: {len(records)} jobs in {len(passes)} passes, "
          f"QBENCH_THREADS={os.environ['QBENCH_THREADS']}")
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layer.items()}
    else:
        for name, unit in END_TO_END_UNITS.items():
            print(f"{name:12s} {summary[name]:.6g} {unit}")
        metrics = {name: {"value": summary[name], "unit": END_TO_END_UNITS[name]}
                   for name in GATED}
    print(json.dumps({"correct": not unexpected, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB-computed"
    if name.endswith("_frac"):
        return "fraction"
    if name == "max_err":
        return "abs"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
