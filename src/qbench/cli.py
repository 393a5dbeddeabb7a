"""Command-line front end: benchmark values, canonical recipes, optical runs.

Three subcommands share one report shape.  Each ``cmd_*`` returns its
report body and whether it is certified; :func:`main` alone wraps the body
as ``{"command", **body, "certified", "timestamp"}``, written as JSON or as
its CSV flattening, and picks the exit code: 0 exactly when the report is
certified, 2 when the numbers came out but could not be certified (search
stagnated, guard tripped, cross-check disagreed), 1 for usage and parse
problems.
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
import functools
import json
import math
from datetime import datetime, timezone

import numpy as np

from .canonical import (
    canonical_det_test,
    canonical_prob_test,
    recipe_to_json,
    round_trip_residual,
    score_recipe,
    within_recipe_tol,
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
    run_analytic,
    run_setup,
    setup_to_json,
    vacuum_device,
)
from .engine import DEFAULT_RESTARTS, DEFAULT_SEED, PnrConfig, det_benchmark, prob_benchmark
from .errors import ContractError, CutoffError, SupportError, ToolkitError
from .linalg import Operator, operator_from_json, operator_to_json
from .model import (
    Channel,
    DetTest,
    ProbTest,
    channel_from_json,
    check_bytes,
    det_test_from_json,
    performance_operator,
    prob_test_from_json,
    score_det_direct,
    score_prob,
)
from .presets import chsh_test, equator_test, teleport_test

CV_CERTIFY_TOL = 1e-3  # run vs oracle disagreement past this is uncertified
# json.load's peak bytes per byte of file, measured with tracemalloc: 2.8–9
# on the number arrays of channel, operator and test files; nested empty
# lists, the worst text tried, reach 44.8
JSON_PEAK_PER_BYTE = 45


class _UsageError(Exception):
    """Bad flag combination or device spec; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the report contract
    # reserves 2 for uncertified numerics, so remap to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_json(path: str) -> dict:
    """The one reader of ``@kraus.json``, ``--omega`` and ``--test`` files; a
    file whose parse could pass ``ARRAY_MAX_BYTES`` is refused unread."""
    with open(path, "r", encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        check_bytes(JSON_PEAK_PER_BYTE * size, f"{path} holds {size} bytes, and parsing it")
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise _UsageError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
        except UnicodeDecodeError as err:
            raise _UsageError(f"{path} is not UTF-8 text: {err.reason}") from err


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
# inputs


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``; a value it rejects is a usage error."""
    try:
        return build(*args, **kwargs)
    except ContractError as err:
        raise _UsageError(str(err)) from err


def _source(args, *flags: str) -> str:
    """The one of ``flags`` that is set; none or several is a usage error."""
    given = [flag for flag in flags if getattr(args, flag) is not None]
    if len(given) != 1:
        names = "/".join(f"--{flag}" for flag in flags)
        raise _UsageError(f"{args.command} needs exactly one of {names}")
    return given[0]


def _from_spec(spec: str, table: dict, what: str):
    """``make(param)`` for a ``name[:param]`` spec, where ``table`` maps each
    name to ``(make, cast, default)``: a ``cast`` of None takes no parameter,
    and a ``default`` of None needs one."""
    name, _, text = spec.partition(":")
    if name not in table:
        raise _UsageError(f"unknown {what} {name!r}; pick from {', '.join(table)}")
    make, cast, default = table[name]
    if cast is None:
        if text:
            raise _UsageError(f"{what} {name!r} takes no parameter")
        return make()
    if not text and default is None:
        raise _UsageError(f"{what} {name!r} needs a parameter, e.g. {name}:0.8")
    try:
        param = cast(text) if text else default
    except ValueError as err:
        kind = "an integer" if cast is int else "a number"
        raise _UsageError(f"{what} parameter {text!r} is not {kind}") from err
    return _checked(make, param)


def _read_omega(path: str) -> ProbTest | Operator:
    """An ``--omega`` file: a probabilistic test, or a bare performance operator."""
    data = _load_json(path)
    if isinstance(data, dict) and "omega" in data:
        return prob_test_from_json(data)
    return operator_from_json(data)


def _read_test(path: str) -> tuple[DetTest, Operator]:
    """A ``--test`` file's deterministic test and its performance operator."""
    test = det_test_from_json(_load_json(path))
    return test, performance_operator(test)


# ---------------------------------------------------------------------------
# benchmark

# --builtin name: (make, cast, default) for _from_spec; make returns the
# report's scenario keys and the test, None for the closed-form coherent case
_BUILTINS = {
    "teleport": (lambda d: ({"builtin": "teleport", "dim": d}, teleport_test(d)), int, 2),
    "chsh": (lambda: ({"builtin": "chsh"}, chsh_test()), None, None),
    "equator": (lambda n: ({"builtin": "equator", "points": n}, equator_test(n)), int, 3),
    "coherent": (lambda: ({"builtin": "coherent"}, None), None, None),
}


def _pnr_config(args) -> PnrConfig:
    if args.restarts < 0:
        raise _UsageError(f"--restarts must be non-negative, got {args.restarts}")
    return PnrConfig(restarts=args.restarts, seed=args.seed)


def cmd_benchmark(args) -> tuple[dict, bool]:
    source = _source(args, "builtin", "omega", "test")
    if source == "test":
        _, omega = _read_test(args.test)
        report = det_benchmark(omega, _pnr_config(args))
        return {"source": args.test, **report.to_json()}, report.converged

    if source == "omega":
        body, test = {"source": args.omega}, _read_omega(args.omega)
        if isinstance(test, Operator):
            # ProbTest refuses an operator that is not bipartite
            d_in = test.dims[-1]
            test = ProbTest(test, Operator(np.eye(d_in) / d_in, (d_in,)))
    else:
        body, test = _from_spec(args.builtin, _BUILTINS, "builtin")
    if test is None:
        # measure-and-prepare threshold of the coherent-state test: the
        # heterodyne device that re-prepares at q = g/(1+lam) is optimal
        params = _checked(CvParams, g=args.g, lam=args.lam)
        value = rescale_mp_device(params.g / (1.0 + params.lam)).average_fidelity(params)
        body |= {"g": params.g, "lambda": params.lam, "value": value, "lower": value,
                 "upper": value, "method": "closed_form", "tau_min": None}
        return body, True
    res = prob_benchmark(test, _pnr_config(args), _details=True)
    body |= {"value": res.value, "lower": res.value, "upper": res.upper, "method": res.method,
             "restarts": res.restarts, "tau_min": operator_to_json(test.sigma_A)}
    return body, True


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


def cmd_canonical(args) -> tuple[dict, bool]:
    source = _source(args, "omega", "test")
    check: dict | None = None
    if source == "test":
        test, omega = _read_test(args.test)
        recipe = canonical_det_test(omega)
        channel = _check_channel(omega.dims, args.seed, trace_preserving=True)
        direct = score_det_direct(test, channel)
        via, p = score_recipe(recipe, channel)
        check = {
            "score_original": direct,
            "score_recipe": via,
            "p_succ": p,
            "deviation": abs(direct - via),
        }
    elif isinstance(test := _read_omega(args.omega), Operator):
        omega, recipe = test, canonical_det_test(test)
    else:
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

    residual = round_trip_residual(recipe, omega)
    ok = within_recipe_tol(residual, np.linalg.norm(omega.matrix)) and (
        check is None or within_recipe_tol(check["deviation"], abs(check["score_original"]))
    )
    body = {
        "source": getattr(args, source),
        "recipe": recipe_to_json(recipe),
        "round_trip_residual": residual,
        "check": check,
    }
    return body, ok


# ---------------------------------------------------------------------------
# cv

# --device name: (make, cast, default) for _from_spec; "@path" reads a Kraus file
_DEVICES = {
    "identity": (identity_device, None, None),
    "vacuum": (vacuum_device, None, None),
    "heterodyne-mp": (rescale_mp_device, None, None),
    "attenuator": (attenuator_device, float, None),
    "scale": (rescale_mp_device, float, None),
}


def cmd_cv(args) -> tuple[dict, bool]:
    params = _checked(CvParams, g=args.g, lam=args.lam, mu=args.mu, conjugate=args.conjugate)
    cutoff = _checked(FockCutoff, args.cutoff)
    if args.device.startswith("@"):
        device = channel_from_json(_load_json(args.device[1:]))
    else:
        device = _from_spec(args.device, _DEVICES, "device")
    analytic = isinstance(device, AnalyticDevice)
    setup = build_setup(params, cutoff)

    score = p_succ = None
    note = None
    try:
        score, p_succ = (run_analytic if analytic else run_setup)(setup, device)
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
        if not certified and 1.0 - p_succ > CV_CERTIFY_TOL:
            note = (
                f"the device spills 1 - p_succ = {1.0 - p_succ:.2e} of the run past "
                f"n_max={cutoff.n_max}; a taller --cutoff keeps more of it"
            )
    body = {
        "device": args.device,
        "setup": setup_to_json(setup),
        "score": score,
        "p_succ": p_succ,
        "oracle": oracle.value,
        "oracle_method": oracle.method,
        "abs_diff": diff,
        "value": oracle.value if score is None else score,
        "method": method,
        "note": note,
    }
    return body, certified


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once: parsing returns a fresh namespace."""
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
        "closed form for a built-in device, a finite Fock series for an "
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
        body, certified = args.func(args)
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        _emit({"command": args.command, **body, "certified": certified, "timestamp": stamp}, args)
    except (_UsageError, OSError) as err:
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
    return 0 if certified else 2


if __name__ == "__main__":
    raise SystemExit(main())
