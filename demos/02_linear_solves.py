"""
Assembly and the linear solves behind everything
================================================

The nonlinear solvers lean on two linear building blocks: the shifted
problem  d2u - k u = rhs  with k > 0 (always uniquely solvable, inverse
positive), and the pure-flux Poisson problem  d2m = rhs  with mean-zero
data (solvable up to a constant).  Kirchhoff vertex conditions are never
imposed explicitly -- they are what the weak form does at shared DOFs.
"""

import numpy as np

from kwnet import (
    GridFunction,
    assemble_mass,
    assemble_stiffness,
    build_graph,
    build_grid,
    constant,
    integrate,
    sample_function,
    solve_poisson_meanzero,
    solve_shifted,
)

graph = build_graph(["a", "b"], [("e1", "a", "b", 1.0)])
grid = build_grid(graph, {"e1": 256})

# ---------------------------------------------------------------------------
# the stiffness matrix is an M-matrix with constants in its kernel
K = assemble_stiffness(grid)
ones = np.ones(grid.ndof)
print("K symmetric:", (K != K.T).nnz == 0)
print("max |K 1| =", float(np.max(np.abs(K @ ones))), "(constants are flat)")
M = assemble_mass(grid)
print("mass diagonal sums to |Gamma|:", float(np.sum(M.diagonal())))

# ---------------------------------------------------------------------------
# shifted solve, manufactured:  u(s) = cos(2 pi s)  satisfies
#   u'' - u = -(1 + 4 pi^2) cos(2 pi s)
# with zero end slopes, i.e. Kirchhoff-compatible on a single edge.
exact = sample_function(grid, {"e1": lambda s: np.cos(2 * np.pi * s)})
k = constant(grid, 1.0)
rhs = GridFunction(grid, -(1 + 4 * np.pi**2) * exact.values)
u = solve_shifted(grid, k, rhs)
err = float(np.max(np.abs(u.values - exact.values)))
print("\nshifted solve sup error:", err, "(second order in the spacing)")

# inverse positivity: nonnegative data cannot produce negative solutions.
# This sign structure is the engine of the monotone iteration later on.
rng = np.random.default_rng(7)
b = GridFunction(grid, -rng.uniform(0.0, 1.0, grid.ndof))
v = solve_shifted(grid, k, b)   # d2v - v = b <= 0  =>  v >= 0
print("min of the solution for nonpositive rhs:", float(np.min(v.values)))

# ---------------------------------------------------------------------------
# mean-zero Poisson: the compatibility condition is integral(rhs) = 0,
# and the returned potential is normalized to mean zero itself
f = sample_function(grid, {"e1": lambda s: np.sin(2 * np.pi * s)})
print("\nintegral of rhs:", integrate(f))
m = solve_poisson_meanzero(grid, f)
print("mean of m:", integrate(m) / grid.total_length)
resid = K @ m.values + grid.weights * f.values
print("max |K m + M f| =", float(np.max(np.abs(resid))))
