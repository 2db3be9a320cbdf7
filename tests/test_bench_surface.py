"""The names the benchmark reaches in the package, read from its source.

`bench/spans.py` wraps the functions it lists in `TRACED` by name, and
`bench/workloads.py` imports from `circlepers` directly.  Renaming or
deleting one of them breaks the benchmark, so these tests read both files
(without running them) and check every name they use.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import circlepers
from circlepers.metric_plane import solve_bottleneck

BENCH = Path(__file__).resolve().parents[1] / "bench"


def parsed(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def traced():
    for node in parsed("spans.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED")


def workload_imports():
    for node in ast.walk(parsed("workloads.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "circlepers":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize(
    "module, function", [(m, f) for m, functions in traced().items() for f in functions]
)
def test_every_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"circlepers.{module}"), function))


@pytest.mark.parametrize("module, name", sorted(set(workload_imports())))
def test_every_name_the_workloads_import_exists(module, name):
    # `from circlepers import io` names a submodule, which the package also holds
    assert hasattr(importlib.import_module(module), name)


def test_the_bottleneck_probe_can_unpack_its_arguments():
    # spans' `_bottleneck_size` reads `pair_costs, diag_a, diag_b = args`
    assert list(inspect.signature(solve_bottleneck).parameters) == ["pair_costs", "diag_a", "diag_b"]


def test_the_import_scan_finds_the_workload_imports():
    assert {module for module, _ in workload_imports()} >= {circlepers.__name__, "circlepers.cli"}
