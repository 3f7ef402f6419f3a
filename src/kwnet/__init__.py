"""Solvers for the Kazdan-Warner equation d2u = c - h exp(u) on metric graphs.

Continuity at vertices and the Kirchhoff flux condition are built into the
discretization; the three sign regimes of c get the constructive solvers they
admit, plus a solvability-threshold estimator and verification utilities.
"""

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
from .assembly import (  # noqa: F401
    apply_residual,
    assemble_mass,
    assemble_stiffness,
    solve_poisson_meanzero,
    solve_shifted,
)
from .solvers import (  # noqa: F401
    Solution,
    SolvabilityVerdict,
    SolveCounts,
    SolveReport,
    ThresholdEstimate,
    UpperSolutionParams,
    build_lower,
    build_upper,
    build_upper_hneg,
    classify,
    estimate_threshold,
    monotone_iterate,
    solve,
    solve_critical,
    solve_negative,
    solve_positive,
    solve_zero,
)
from .verify import (  # noqa: F401
    FDGradientReport,
    IdentityReport,
    fd_gradient_check,
    identity_report,
    manufacture,
    oracle_newton,
)
from .problemfile import (  # noqa: F401
    ProblemSpec,
    compile_expression,
    default_cells,
    load_problem,
    parse_problem,
)

__version__ = "0.1.0"
