"""Per-module spans for the traced run, recorded from outside ``src/``.

``Tracer.install`` replaces each public function named in ``TARGETS`` with
a wrapper in every ``qbench`` namespace that binds it (``run_setup``, for
one, is bound in both ``qbench.cv`` and ``qbench.cli``).  The package calls
its own functions through module globals, so nested calls such as
``run_setup -> two_mode_squeezer`` or ``prob_benchmark ->
product_numerical_range`` land in the wrappers and nest by themselves.

Each span is ``[name, start, end, parent, job]``; spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children.  The wrappers also time their
own bookkeeping, which is reported as the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import math
import re
import subprocess
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter

# module -> wrapped public functions ("Class.method" for methods)
TARGETS = {
    "cli": ("main",),
    "cv": (
        "two_mode_squeezer",
        "beamsplitter",
        "scaled_pair_observable",
        "additive_noise_channel",
        "heterodyne_mp_channel",
        "AnalyticDevice.materialize",
        "build_setup",
        "run_setup",
        "average_fidelity_oracle",
    ),
    "engine": (
        "prob_benchmark",
        "det_benchmark",
        "product_numerical_range",
        "pnr_grid_oracle",
        "minimize",
    ),
    "canonical": ("canonical_det_test", "canonical_prob_test", "score_recipe"),
    "model": ("performance_operator", "score_det_direct", "score_prob"),
}

# modules whose cumulative -X importtime is reported, as import.<name>_s
IMPORTS = ("numpy", "scipy.stats", "scipy.optimize", "qbench.cv", "qbench.engine")

# The truncated squeezer is trusted while tanh(theta)^(2 n_max) is at most
# this; past it the fidelity branches score against the pair observable.
STAGE_DECAY_TOL = 1e-9


def span_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attrs in TARGETS.items() for attr in attrs]


def _nbytes(result) -> int:
    if hasattr(result, "matrix"):
        return result.matrix.nbytes
    return sum(k.nbytes for k in result.kraus)


def _pair_route(setup) -> bool:
    if setup.branch == "conjugation":
        return False
    return math.tanh(setup.theta) ** (2 * setup.cutoff.n_max) > STAGE_DECAY_TOL


class Tracer:
    """Collects spans and layer counts while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- counting hooks, keyed by span name; each sees (result, args, kwargs)

    def _count(self, name: str, result, args, kwargs) -> None:
        c = self._counts
        if name == "cv.run_setup":
            setup = args[0] if args else kwargs["setup"]
            device = args[1] if len(args) > 1 else kwargs["device"]
            c["device_kraus"] += len(device.kraus)
            c["pair_route_jobs"] += _pair_route(setup)
        elif name in ("cv.two_mode_squeezer", "cv.beamsplitter",
                      "cv.scaled_pair_observable", "cv.heterodyne_mp_channel",
                      "cv.additive_noise_channel"):
            c["stage_bytes"] += _nbytes(result)
            if name == "cv.scaled_pair_observable":
                c["pair_builds"] += 1
            elif name == "cv.additive_noise_channel":
                c["noise_kraus"] += len(result.kraus)
        elif name == "engine.product_numerical_range":
            c["pnr_iterations"] += result.iterations
            c["pnr_starts"] += result.restarts
        elif name == "engine.pnr_grid_oracle":
            c["grid_points"] += result.points
        elif name == "engine.minimize":
            c["nfev"] += result.nfev
        elif name == "engine.det_benchmark":
            c["det_converged"] += bool(result.converged)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                if done:
                    tracer._count(name, result, args, kwargs)
                tracer.overhead_s += (span[1] - t0) + (perf_counter() - span[2])

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "qbench" or key.startswith("qbench."))
        ]
        for mod_name, attrs in TARGETS.items():
            mod = importlib.import_module(f"qbench.{mod_name}")
            for attr in attrs:
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    owner = getattr(mod, cls_name)
                    fn = owner.__dict__[meth]
                    self._patch(owner, meth, self._wrap(f"{mod_name}.{attr}", fn))
                    continue
                fn = getattr(mod, attr)
                wrapped = self._wrap(f"{mod_name}.{attr}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapped)

    def _patch(self, owner, key: str, new) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<f>.{calls,total_s,self_s}`` for every target, plus counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
        c = self._counts
        pair_jobs = c["pair_route_jobs"]
        det_calls = out["engine.det_benchmark.calls"]
        out.update({
            "cv.device_kraus": c["device_kraus"],
            "cv.noise_kraus": c["noise_kraus"],
            "cv.stage_mb": c["stage_bytes"] / 2**20,
            "cv.pair_observable.reuse_frac": (
                1.0 - c["pair_builds"] / pair_jobs if pair_jobs else 0.0
            ),
            "engine.pnr.iterations": c["pnr_iterations"],
            "engine.pnr.starts": c["pnr_starts"],
            "engine.minimize.nfev": c["nfev"],
            "engine.grid.points": c["grid_points"],
            "engine.det.converged_frac": (
                c["det_converged"] / det_calls if det_calls else 0.0
            ),
        })
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*?)\s*$")


def import_times(python: str, env: dict, cwd: str, runs: int = 3) -> dict[str, float]:
    """Median cumulative ``-X importtime`` of ``IMPORTS`` over fresh interpreters.

    A module that ``import qbench.cli`` no longer loads reports 0.
    """
    samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
    for _ in range(runs):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import qbench.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(3) in samples:
                seen[m.group(3)] = int(m.group(2)) / 1e6
        for name in IMPORTS:
            samples[name].append(seen.get(name, 0.0))
    return {f"import.{name}_s": median(v) for name, v in samples.items()}
