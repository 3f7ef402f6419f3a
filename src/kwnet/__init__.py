"""Solvers for the Kazdan-Warner equation d2u = c - h exp(u) on metric graphs.

Continuity at vertices and the Kirchhoff flux condition are built into the
discretization; the three sign regimes of c get the constructive solvers they
admit, plus a solvability-threshold estimator and verification utilities.

The layers that need only numpy (errors, graph, problemfile) are imported with
the package.  The names of assembly, solvers and verify, which need scipy, are
looked up in their module on every access (PEP 562), and the first access
imports it: ``import kwnet`` and work on graphs and problem files load no
scipy.  Looking a name up each time, instead of binding it here, means
``kwnet.solve`` is always ``kwnet.solvers.solve``, also while a test or a
tracer has patched the latter.
"""

from importlib import import_module as _import_module

from . import errors, graph, problemfile  # noqa: F401
from .errors import *  # noqa: F401,F403
from .graph import (  # noqa: F401
    Edge,
    Grid,
    GridFunction,
    MetricGraph,
    build_graph,
    build_grid,
    check_moser,
    check_poincare,
    constant,
    exp_weighted_energy,
    h1_seminorm,
    integrate,
    norms,
    sample_function,
)
from .problemfile import (  # noqa: F401
    ProblemSpec,
    compile_expression,
    default_cells,
    load_problem,
    parse_problem,
)

# public name -> the scipy-dependent submodule that defines it
_LAZY = {
    name: module
    for module, names in {
        "assembly": (
            "apply_residual",
            "assemble_mass",
            "assemble_stiffness",
            "solve_poisson_meanzero",
            "solve_shifted",
        ),
        "solvers": (
            "Solution",
            "SolvabilityVerdict",
            "SolveCounts",
            "SolveReport",
            "ThresholdEstimate",
            "UpperSolutionParams",
            "build_lower",
            "build_upper",
            "build_upper_hneg",
            "classify",
            "estimate_threshold",
            "monotone_iterate",
            "solve",
            "solve_critical",
            "solve_negative",
            "solve_positive",
            "solve_zero",
        ),
        "verify": (
            "FDGradientReport",
            "IdentityReport",
            "fd_gradient_check",
            "identity_report",
            "manufacture",
            "oracle_newton",
        ),
    }.items()
    for name in names
}
_LAZY_MODULES = frozenset(_LAZY.values())

__all__ = [
    *(name for name, value in vars(errors).items() if isinstance(value, type)),
    "Edge",
    "Grid",
    "GridFunction",
    "MetricGraph",
    "build_graph",
    "build_grid",
    "check_moser",
    "check_poincare",
    "constant",
    "exp_weighted_energy",
    "h1_seminorm",
    "integrate",
    "norms",
    "sample_function",
    "ProblemSpec",
    "compile_expression",
    "default_cells",
    "load_problem",
    "parse_problem",
    *_LAZY,
    "errors",
    "graph",
    "problemfile",
    *sorted(_LAZY_MODULES),
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY_MODULES:
        return _import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
