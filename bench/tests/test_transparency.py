"""The traced run's wrappers must not change what the program reports.

Run with ``python3 -m pytest bench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (caps BLAS threads and puts src/ on the path)
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _cheap(job: workloads.Job) -> bool:
    """Every job kind of a pass except the slowest: cv cutoffs above 40 and
    above 20 for noisy multi-Kraus devices, det tests with a qutrit input."""
    argv = job.argv
    if job.kind == "cv":
        n_max = int(argv[argv.index("--cutoff") + 1])
        if "--mu" in argv:
            return n_max <= 20 or argv[2] == "identity"
        return n_max <= 40
    if job.kind == "det":
        return Path(argv[-1]).name in ("det2x2.json", "det3x2.json")
    return True


def _comparable(record: dict) -> tuple:
    report = record["report"]
    if report is not None:
        report = {k: v for k, v in report.items() if k != "timestamp"}
    return record["exit"], record["ok"], record["defect"], report


def test_traced_and_untraced_runs_agree(tmp_path):
    for workload in workloads.WORKLOADS:
        jobs = [j for j in workloads.make_pass(workload, SEED, 0, tmp_path / workload)
                if _cheap(j)]
        tracer = spans.Tracer()
        # traced first, so that caches the untraced run could reuse are
        # filled through the wrappers
        traced, _ = run.run_jobs(jobs, tracer)
        plain, _ = run.run_jobs(jobs)
        assert len(tracer.spans) > len(jobs)
        assert [_comparable(r) for r in traced] == [_comparable(r) for r in plain]


def test_wrappers_are_removed_after_a_traced_run():
    import qbench.cli
    import qbench.cv

    before = (qbench.cli.main, qbench.cli.run_setup, qbench.cv.run_setup,
              qbench.cv.AnalyticDevice.materialize)
    with spans.Tracer() as tracer:
        assert qbench.cli.run_setup is qbench.cv.run_setup
        assert qbench.cv.run_setup is not before[2]
        run.call_cli(["benchmark", "--builtin", "chsh"])
    after = (qbench.cli.main, qbench.cli.run_setup, qbench.cv.run_setup,
             qbench.cv.AnalyticDevice.materialize)
    assert after == before
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and "engine.prob_benchmark" in names
