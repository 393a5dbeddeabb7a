"""Command-line front end: benchmark values, canonical recipes, optical runs.

Three subcommands share one report shape — a flat JSON object (or its CSV
flattening) with the computed value, the certification evidence, and a
timestamp.  Exit codes: 0 when the result is certified, 2 when the numbers
came out but could not be certified (search stagnated, guard tripped,
cross-check disagreed), 1 for usage and parse problems.
"""

from __future__ import annotations

import os
import sys

# BLAS pools size themselves when numpy first loads, so the thread cap has
# to reach the environment before any numeric import below runs.  Keeping
# qbench/__init__ lazy is what makes this ordering possible for the
# console-script entry point.
_cap = os.environ.get("QBENCH_THREADS")
if _cap:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _cap)

import argparse
import csv
import json
import math
from datetime import datetime, timezone

import numpy as np

from .canonical import (
    canonical_det_test,
    canonical_prob_test,
    recipe_to_json,
    score_recipe,
)
from .cv import (
    AnalyticDevice,
    CvParams,
    FockCutoff,
    attenuator_device,
    average_fidelity_oracle,
    build_setup,
    identity_device,
    rescale_mp_device,
    run_setup,
    setup_to_json,
    vacuum_device,
)
from .engine import DEFAULT_RESTARTS, DEFAULT_SEED, PnrConfig, det_benchmark, prob_benchmark
from .errors import ContractError, CutoffError, SupportError, ToolkitError
from .linalg import Operator, operator_from_json, operator_to_json
from .model import (
    Channel,
    ProbTest,
    channel_from_json,
    det_test_from_json,
    performance_operator,
    prob_test_from_json,
    score_det_direct,
    score_prob,
)
from .presets import chsh_test, equator_test, teleport_test

CV_CERTIFY_TOL = 1e-3  # run vs oracle disagreement past this is uncertified
CHECK_TOL = 1e-9  # canonical round trip and check-channel agreement


class _UsageError(Exception):
    """Bad flag combination or device spec; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the report contract
    # reserves 2 for uncertified numerics, so remap to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise _UsageError(
                f"{path}:{err.lineno}:{err.colno}: {err.msg}"
            ) from err


def _flatten(payload: dict, prefix: str = "") -> dict:
    """Dotted-key scalar view of a nested report; matrices stay JSON-only."""
    flat: dict = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif value is None or isinstance(value, (bool, int, float, str)):
            flat[name] = value
    return flat


def _emit(payload: dict, args) -> None:
    if args.format == "csv":
        flat = _flatten(payload)
        out = sys.stdout if args.out is None else open(args.out, "w", newline="")
        try:
            writer = csv.DictWriter(out, fieldnames=list(flat))
            writer.writeheader()
            writer.writerow(flat)
        finally:
            if out is not sys.stdout:
                out.close()
        return
    text = json.dumps(payload, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# benchmark


def _pnr_config(args) -> PnrConfig:
    if args.restarts < 0:
        raise _UsageError(f"--restarts must be non-negative, got {args.restarts}")
    return PnrConfig(restarts=args.restarts, seed=args.seed)


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``; a value it rejects is a usage error."""
    try:
        return build(*args, **kwargs)
    except ContractError as err:
        raise _UsageError(str(err)) from err


def _builtin_count(param: str, default: int) -> int:
    """The integer after ``name:`` in ``--builtin``, or ``default``."""
    try:
        return int(param) if param else default
    except ValueError as err:
        raise _UsageError(f"builtin parameter {param!r} is not an integer") from err


def _benchmark_prob(test: ProbTest, args, extra: dict) -> tuple[dict, int]:
    res = prob_benchmark(test, _pnr_config(args), _details=True)
    payload = {
        "command": "benchmark",
        **extra,
        "value": res.value,
        "lower": res.lower,
        "upper": res.upper,
        "method": res.method,
        "restarts": res.restarts,
        "tau_min": operator_to_json(test.sigma_A),
        "certified": True,
        "timestamp": _timestamp(),
    }
    return payload, 0


def cmd_benchmark(args) -> tuple[dict, int]:
    sources = [args.builtin is not None, args.omega is not None, args.test is not None]
    if sum(sources) != 1:
        raise _UsageError("benchmark needs exactly one of --builtin/--omega/--test")

    if args.builtin is not None:
        name, _, param = args.builtin.partition(":")
        if name == "teleport":
            dim = _builtin_count(param, 2)
            return _benchmark_prob(
                _checked(teleport_test, dim), args, {"builtin": "teleport", "dim": dim}
            )
        if name == "chsh":
            return _benchmark_prob(chsh_test(), args, {"builtin": "chsh"})
        if name == "equator":
            n = _builtin_count(param, 3)
            return _benchmark_prob(
                _checked(equator_test, n), args, {"builtin": "equator", "points": n}
            )
        if name == "coherent":
            # measure-and-prepare threshold of the coherent-state test at
            # gain g and prior lambda; the optimal rescaling q = g/(1+lam)
            # turns the amplitude integral into this closed form
            params = _checked(CvParams, g=args.g, lam=args.lam)
            value = (1.0 + params.lam) / (1.0 + params.lam + params.g**2)
            payload = {
                "command": "benchmark",
                "builtin": "coherent",
                "g": params.g,
                "lambda": params.lam,
                "value": value,
                "lower": value,
                "upper": value,
                "method": "closed_form",
                "tau_min": None,
                "certified": True,
                "timestamp": _timestamp(),
            }
            return payload, 0
        raise _UsageError(
            f"unknown builtin {name!r}; pick from teleport, chsh, equator, coherent"
        )

    if args.omega is not None:
        data = _load_json(args.omega)
        if "omega" in data:
            test = prob_test_from_json(data)
        else:
            omega = operator_from_json(data)
            d_in = omega.dims[1]
            test = ProbTest(omega, Operator(np.eye(d_in) / d_in, (d_in,)))
        return _benchmark_prob(test, args, {"source": args.omega})

    test = det_test_from_json(_load_json(args.test))
    omega = performance_operator(test)
    report = det_benchmark(omega, _pnr_config(args))
    payload = {
        "command": "benchmark",
        "source": args.test,
        **report.to_json(),
        "certified": report.converged,
        "timestamp": _timestamp(),
    }
    return payload, 0 if report.converged else 2


# ---------------------------------------------------------------------------
# canonical


def _check_channel(dims: tuple[int, int], seed: int, trace_preserving: bool) -> Channel:
    """Random check channel with Kraus shape ``dims`` = (d_out, d_in), with
    enough Kraus operators for sum K†K to be invertible on d_in."""
    rng = np.random.default_rng(seed)
    count = max(2, -(-dims[1] // dims[0]))
    kraus = [rng.normal(size=dims) + 1j * rng.normal(size=dims) for _ in range(count)]
    total = sum(k.conj().T @ k for k in kraus)
    if trace_preserving:
        w, v = np.linalg.eigh(total)
        root_inv = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
        return Channel([k @ root_inv for k in kraus])
    scale = math.sqrt(0.7 / np.max(np.linalg.eigvalsh(total)))
    return Channel([scale * k for k in kraus], trace_preserving=False)


def cmd_canonical(args) -> tuple[dict, int]:
    sources = [args.omega is not None, args.test is not None]
    if sum(sources) != 1:
        raise _UsageError("canonical needs exactly one of --omega/--test")

    check: dict | None = None
    if args.test is not None:
        test = det_test_from_json(_load_json(args.test))
        omega = performance_operator(test)
        recipe = canonical_det_test(omega)
        channel = _check_channel(omega.dims, args.seed, trace_preserving=True)
        direct = score_det_direct(test, channel)
        via, p = score_recipe(recipe, channel)
        check = {
            "score_original": direct,
            "score_recipe": via - recipe.offset,
            "p_succ": p,
            "deviation": abs(direct - (via - recipe.offset)),
        }
        source = args.test
    else:
        data = _load_json(args.omega)
        if "omega" in data:
            test = prob_test_from_json(data)
            omega = test.omega
            recipe = canonical_prob_test(test)
            channel = _check_channel(omega.dims, args.seed, trace_preserving=False)
            s0, p0 = score_prob(test, channel)
            s1, p1 = score_recipe(recipe, channel)
            check = {
                "score_original": s0,
                "score_recipe": s1,
                "p_succ_original": p0,
                "p_succ_recipe": p1,
                "deviation": max(abs(s0 - s1), abs(p0 - p1)),
            }
        else:
            omega = operator_from_json(data)
            recipe = canonical_det_test(omega)
        source = args.omega

    round_trip = performance_operator(recipe.as_det_test())
    shift = recipe.offset * np.kron(
        np.eye(omega.dims[0]), np.eye(omega.dims[1])
    )
    residual = float(np.linalg.norm(round_trip.matrix - shift - omega.matrix))
    ok = residual <= CHECK_TOL and (check is None or check["deviation"] <= CHECK_TOL)
    payload = {
        "command": "canonical",
        "source": source,
        "recipe": recipe_to_json(recipe),
        "round_trip_residual": residual,
        "check": check,
        "certified": ok,
        "timestamp": _timestamp(),
    }
    return payload, 0 if ok else 2


# ---------------------------------------------------------------------------
# cv


def _resolve_device(spec: str) -> AnalyticDevice | Channel:
    if spec.startswith("@"):
        return channel_from_json(_load_json(spec[1:]))
    name, _, param = spec.partition(":")
    if name in ("identity", "vacuum", "heterodyne-mp") and param:
        raise _UsageError(f"device {name!r} takes no parameter")
    if name == "identity":
        return identity_device()
    if name == "vacuum":
        return vacuum_device()
    if name == "heterodyne-mp":
        return rescale_mp_device(1.0)
    if name in ("attenuator", "scale"):
        if not param:
            raise _UsageError(f"device {name!r} needs a parameter, e.g. {name}:0.8")
        try:
            value = float(param)
        except ValueError as err:
            raise _UsageError(f"device parameter {param!r} is not a number") from err
        return _checked(attenuator_device if name == "attenuator" else rescale_mp_device, value)
    raise _UsageError(
        f"unknown device {spec!r}; builtins are identity, vacuum, attenuator:t, "
        "scale:q, heterodyne-mp, or @kraus.json"
    )


def cmd_cv(args) -> tuple[dict, int]:
    params = _checked(CvParams, g=args.g, lam=args.lam, mu=args.mu, conjugate=args.conjugate)
    cutoff = _checked(FockCutoff, args.cutoff)
    device = _resolve_device(args.device)
    analytic = isinstance(device, AnalyticDevice)
    setup = build_setup(params, cutoff)

    score = p_succ = None
    note = None
    try:
        channel = device.materialize(cutoff) if analytic else device
        score, p_succ = run_setup(setup, channel)
    except CutoffError as err:
        # the closed-form oracle needs no truncation, so a representable
        # analytic device still yields a certified value
        if not analytic:
            raise
        note = str(err)
    oracle = average_fidelity_oracle(device, params, cutoff)

    diff = None if score is None else abs(score - oracle.value)
    if score is None:
        method, certified = "oracle", True
    else:
        method = "setup+oracle"
        certified = diff <= CV_CERTIFY_TOL
    payload = {
        "command": "cv",
        "device": args.device,
        "setup": setup_to_json(setup),
        "score": score,
        "p_succ": p_succ,
        "oracle": oracle.value,
        "oracle_method": oracle.method,
        "oracle_nodes": oracle.nodes,
        "oracle_error": oracle.error,
        "abs_diff": diff,
        "value": oracle.value if score is None else score,
        "method": method,
        "note": note,
        "certified": certified,
        "timestamp": _timestamp(),
    }
    return payload, 0 if certified else 2


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(
        prog="qbench",
        description="Benchmark thresholds, canonical single-setup recipes, "
        "and truncated-Fock optical runs.",
    )
    sub = parser.add_subparsers(dest="command")

    bench = sub.add_parser(
        "benchmark",
        help="measure-and-prepare threshold of a test",
        description="Compute the measure-and-prepare threshold of a built-in "
        "scenario, a performance-operator JSON, or a deterministic test JSON. "
        "Certified means the reported [lower, upper] bracket is rigorous "
        "(spectral bound, tightened by the exhaustive grid on qubit factors).",
    )
    bench.add_argument(
        "--builtin",
        help="teleport[:d] | chsh | equator[:n] | coherent (uses --g/--lambda)",
    )
    bench.add_argument("--omega", help="performance-operator or probabilistic-test JSON")
    bench.add_argument("--test", help="deterministic-test JSON (state + observable)")
    bench.add_argument(
        "--restarts", type=int, default=DEFAULT_RESTARTS,
        help="extra random starts; with --test, the full start set confirms "
        "that the cutting planes converged",
    )
    bench.set_defaults(func=cmd_benchmark)

    canon = sub.add_parser(
        "canonical",
        help="single-setup recipe for a test",
        description="Rebuild a test as one entangled input plus one observable, "
        "report the performance-operator round-trip residual, and score a "
        "seeded check channel both ways.",
    )
    canon.add_argument("--omega", help="performance-operator or probabilistic-test JSON")
    canon.add_argument("--test", help="deterministic-test JSON")
    canon.set_defaults(func=cmd_canonical)

    cv = sub.add_parser(
        "cv",
        help="score an optical device against the exact reference",
        description="Run a device through the single-setup coherent-state "
        "benchmark and cross-check against the exact average fidelity: the "
        "closed form for a built-in device, Gauss-Hermite quadrature for an "
        "@kraus.json device. When the cutoff cannot hold the run but the "
        "device has a closed form, the oracle value alone is reported "
        "(method 'oracle').",
    )
    cv.add_argument(
        "--device",
        required=True,
        help="identity | vacuum | attenuator:t | scale:q | heterodyne-mp | @kraus.json",
    )
    cv.add_argument("--cutoff", type=int, default=40, help="Fock levels per mode")
    cv.add_argument("--conjugate", action="store_true", help="score against the conjugate target")
    cv.add_argument("--mu", type=float, default=math.inf, help="input noise inverse variance")
    cv.set_defaults(func=cmd_cv)

    for p in (bench, cv):
        p.add_argument("--g", type=float, default=1.0, help="target amplitude gain")
        p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="prior inverse variance")
    for p in (bench, canon):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    for p in (bench, canon, cv):
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        payload, code = args.func(args)
    except _UsageError as err:
        print(f"qbench: error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"qbench: error: {err}", file=sys.stderr)
        return 1
    except SupportError as err:
        where = ""
        if err.direction is not None:
            lead = np.array2string(
                err.direction[:6], precision=4, suppress_small=True
            )
            where = f" (violating direction leads {lead})"
        print(f"qbench: uncertified: {err}{where}", file=sys.stderr)
        return 2
    except ToolkitError as err:
        print(f"qbench: uncertified: {err}", file=sys.stderr)
        return 2
    _emit(payload, args)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
