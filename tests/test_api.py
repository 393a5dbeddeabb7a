"""Public API shape: the package's fixed thresholds are not per-call options."""

from __future__ import annotations

import inspect

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
