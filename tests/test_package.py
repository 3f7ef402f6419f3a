"""The package namespace: eager numpy-only layers, solver names resolved on access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kwnet

ROOT = Path(__file__).resolve().parent.parent

# every name the package exported, by the submodule that defines it
EXPORTS = {
    "errors": (
        "BoundBlowup", "ContinuityMismatch", "DanglingEndpoint", "DisconnectedGraph",
        "Diverged", "FeasibilityFailure", "GridMismatch", "HNotNonpositive",
        "IncompatibleRHS", "IntegralNotNegative", "KirchhoffDefect", "LinearSolveFailure",
        "MarginTooLarge", "NoConvergence", "NoUpperSolutionFound", "NonpositiveLength",
        "NonpositiveShift", "NotMeanZero", "NotSolvable", "OrderingViolated",
        "ResolutionTooCoarse", "SelfLoop", "SeminormExceedsDelta",
    ),
    "graph": (
        "Edge", "Grid", "GridFunction", "MetricGraph", "build_graph", "build_grid",
        "check_moser", "check_poincare", "constant", "exp_weighted_energy", "h1_seminorm",
        "integrate", "norms", "sample_function",
    ),
    "assembly": (
        "apply_residual", "assemble_mass", "assemble_stiffness", "solve_poisson_meanzero",
        "solve_shifted",
    ),
    "solvers": (
        "Solution", "SolvabilityVerdict", "SolveCounts", "SolveReport", "ThresholdEstimate",
        "UpperSolutionParams", "build_lower", "build_upper", "build_upper_hneg", "classify",
        "estimate_threshold", "monotone_iterate", "solve", "solve_critical", "solve_negative",
        "solve_positive", "solve_zero",
    ),
    "verify": (
        "FDGradientReport", "IdentityReport", "fd_gradient_check", "identity_report",
        "manufacture", "oracle_newton",
    ),
    "problemfile": (
        "ProblemSpec", "compile_expression", "default_cells", "load_problem", "parse_problem",
    ),
}
NAMES = [name for names in EXPORTS.values() for name in names]


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_graph_and_problem_file_work_loads_no_scipy(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({
        "vertices": ["o", "p", "q"],
        "edges": [{"id": "e1", "tail": "o", "head": "p", "length": 1.0, "cells": 8},
                  {"id": "e2", "tail": "o", "head": "q", "length": 0.5, "cells": 4}],
        "h": "cos(pi*s) - 0.5",
        "c": -1,
    }))
    code = (
        "import math, sys, kwnet\n"
        "g = kwnet.build_graph(['p', 'q'], [('e1', 'p', 'q', 1.0)])\n"
        "f = kwnet.sample_function(kwnet.build_grid(g, 16), lambda s: math.sin(s))\n"
        f"spec = kwnet.load_problem({str(path)!r})\n"
        "assert f.values.shape == (17,) and spec.grid.ndof == 13 and spec.c == -1\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert run_fresh(code) == "[]"


def test_the_first_solver_name_imports_its_module():
    code = ("import sys, kwnet; before = 'kwnet.solvers' in sys.modules; kwnet.solve; "
            "print(before, 'kwnet.solvers' in sys.modules, 'scipy' in sys.modules)")
    assert run_fresh(code) == "False True True"


def test_every_exported_name_is_its_submodules_object():
    for module, names in EXPORTS.items():
        assert getattr(kwnet, module).__name__ == f"kwnet.{module}"
        for name in names:
            assert getattr(kwnet, name) is getattr(getattr(kwnet, module), name), name


def test_dir_and_all_list_every_exported_name():
    assert set(NAMES) <= set(dir(kwnet))
    assert set(NAMES) <= set(kwnet.__all__)
    assert len(kwnet.__all__) == len(set(kwnet.__all__))


def test_star_import_binds_the_exported_names_and_submodules():
    # before __all__ it also bound `annotations`, the __future__ feature that
    # errors.py imports
    namespace = {}
    exec("from kwnet import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {*NAMES, *EXPORTS}
    for name in NAMES:
        assert namespace[name] is getattr(kwnet, name)


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'kwnet' has no attribute 'no_such_name'$"):
        kwnet.no_such_name


def test_a_patched_solver_is_seen_through_the_package_and_undone(monkeypatch):
    original = kwnet.solvers.solve

    def fake(*args, **kwargs):
        return "patched"

    with monkeypatch.context() as patch:
        patch.setattr(kwnet.solvers, "solve", fake)
        assert kwnet.solve is fake
        assert kwnet.solve() == "patched"
    assert kwnet.solve is original
