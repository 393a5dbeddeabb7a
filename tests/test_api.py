"""Public API shape: the package's fixed thresholds are not per-call options."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import qbench

# Parameter names that would let a caller override a module threshold
# (HERM_TOL, RANK_TOL, RECIPE_TOL, PPT_TOL, COVARIANCE_TOL, P_SUCC_MIN).
TOLERANCE_NAMES = {"tol", "rank_tol", "norm_tol", "p_min"}


def _public_callables():
    for name in qbench.__all__:
        obj = getattr(qbench, name)
        if inspect.isclass(obj):
            if not issubclass(obj, BaseException):
                yield name, obj
            for attr, member in inspect.getmembers(obj, inspect.isfunction):
                if not attr.startswith("_"):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_public_signature_takes_a_tolerance():
    offenders = [
        f"{name}({param})"
        for name, obj in _public_callables()
        for param in inspect.signature(obj).parameters
        if param in TOLERANCE_NAMES
    ]
    assert offenders == []


def test_no_small_float_literal_in_a_function_body():
    # A tolerance is a named module constant, so each rule keeps one value;
    # a float literal with 0 < |v| < 1e-3 inside a function is an unnamed
    # copy of one.
    found = set()
    for path in sorted(Path(qbench.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Constant) and type(node.value) is float:
                    if 0 < abs(node.value) < 1e-3:
                        found.add(f"{path.name}:{node.lineno} {node.value!r}")
    assert sorted(found) == []
