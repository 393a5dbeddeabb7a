"""Public API shape: the package's fixed thresholds are not per-call options."""

from __future__ import annotations

import argparse
import ast
import inspect
from collections import Counter
from pathlib import Path

import qbench
from qbench.cli import build_parser

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


def _nodes():
    """(module file name, node) for every AST node of ``src/qbench``."""
    for path in sorted(Path(qbench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_module_writes_a_unit_floor():
    # Every tolerance is relative to the size of its operands, or absolute on
    # a dimensionless quantity; a max(1.0, x) or np.maximum(1.0, x) floor would
    # turn it absolute whenever x < 1, a second rule for small operators.
    floors = [
        f"{name}:{node.lineno} {ast.unparse(node)}"
        for name, node in _nodes()
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("max", "np.maximum", "numpy.maximum")
        and any(isinstance(arg, ast.Constant) and arg.value == 1 for arg in node.args)
    ]
    assert floors == []


def test_no_module_raises_a_bare_arithmetic_error():
    # A numerical failure raises the package's NumericalError, a ToolkitError,
    # so the CLI reports it in one line instead of a traceback.
    raised = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Raise) and node.exc is not None
        and ast.unparse(getattr(node.exc, "func", node.exc)) == "ArithmeticError"
    ]
    assert raised == []


def test_only_the_json_rule_catches_key_or_type_errors():
    # One rule admits JSON payloads: linalg.reading turns a missing key or a
    # mistyped value into ContractError.  A handler for KeyError or TypeError
    # (or one broad enough to take them) anywhere else is a second copy of it.
    def takes(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        broad = {"KeyError", "TypeError", "LookupError", "Exception", "BaseException"}
        return any(ast.unparse(t) in broad for t in types)

    found, rule = [], []
    for path in sorted(Path(qbench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {node for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  and (path.name, fn.name) == ("linalg.py", "reading") for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and takes(node):
                (rule if node in inside else found).append(f"{path.name}:{node.lineno}")
    assert len(rule) == 1
    assert found == []


def test_np_isfinite_is_called_only_by_the_admission_rule():
    # One rule admits arrays: linalg.check_finite, on the Frobenius norm.
    # An np.isfinite scan anywhere else is a second copy of it.
    def calls(node: ast.AST) -> int:
        return sum(isinstance(n, ast.Call) and ast.unparse(n.func) in ("np.isfinite", "numpy.isfinite")
                   for n in ast.walk(node))

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(qbench.__file__).parent.glob("*.py"))}
    rule = next(fn for fn in trees["linalg.py"].body
                if isinstance(fn, ast.FunctionDef) and fn.name == "check_finite")
    assert calls(rule) >= 1
    assert sum(calls(tree) for tree in trees.values()) == calls(rule)


def _module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_module_level_name_has_a_use():
    # Code no caller needs is deleted: each top-level function, class and
    # constant is exported or named somewhere besides its own definition.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(qbench.__file__).parent.glob("*.py"))
    }
    uses = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.alias):
                uses[node.name] += 1
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in qbench._EXPORTS
        and not uses[name]
    ]
    assert unused == []


def _defaults(tree: ast.Module) -> int:
    """Parameters with a default, plus defaulted fields of dataclasses
    that have no ``__init__`` of their own."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif (
            isinstance(node, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            and not any(
                isinstance(b, ast.FunctionDef) and b.name == "__init__" for b in node.body
            )
        ):
            count += sum(isinstance(b, ast.AnnAssign) and b.value is not None for b in node.body)
    return count


def test_settable_values_are_counted():
    # Every default and flag is a setting a caller can vary; ROADMAP tracks
    # this count, so a change that adds or removes one must update both.
    defaults = sum(
        _defaults(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(Path(qbench.__file__).parent.glob("*.py"))
    )
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = sum(
        1
        for sub in commands.choices.values()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )
    assert (defaults, flags) == (36, 22)
