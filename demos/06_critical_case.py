"""
The critical case: the solution at the threshold itself
=======================================================

Right at the solvability threshold c(h) the monotone machinery runs out
of upper solutions, but a solution still exists.  In the discrete problem
it is the turning point of the solution branch: walked from the certified
solution at implied_c with the mean of u as its parameter, c falls until
dc/dmu = 0, and that fold is both the threshold c* and the solution there.
The point of the critical case is that the solutions stay bounded on the
way down; the report's approach record holds the H1 norms, Dirichlet
energies, mass defects and residuals of the branch points the walk solved
between the bracket top and the fold.
"""

import numpy as np

from kwnet import (
    GridFunction,
    apply_residual,
    build_graph,
    build_grid,
    estimate_threshold,
    integrate,
    sample_function,
    solve_critical,
)

graph = build_graph(["p", "q"], [("e1", "p", "q", 1.0)])
grid = build_grid(graph, {"e1": 128})
h = sample_function(grid, {"e1": lambda s: np.cos(np.pi * s) - 0.1})

bracket_tol = 1e-5
est = estimate_threshold(h, bracket_tol=bracket_tol)
print("threshold bracket:", [est.c_lo, est.c_hi])

# the estimate carries the fold of its own walk: no second walk runs here
sol = solve_critical(h, est)
rep = sol.report
c_final = rep.details["c_final"]
print("method:", rep.method, " status:", rep.status)
print("c_final:", c_final, " c_midpoint:", rep.details["c_midpoint"])
print("residual at c_final:", apply_residual(sol.u, h, c_final).weak_residual_norm)

# the approach record: branch points from the bracket top down to the fold
# (the last row); bounded H1 norms here are what the critical case rests on
print("\n        c            |u|_H1     1/2|du|^2   mass defect   residual")
for r in rep.details["approach"]:
    print(f"  {r['c']:.10f}  {r['h1_norm']:9.5f}  {r['dirichlet_half']:9.5f}"
          f"  {r['mass_defect']:11.2e}  {r['residual']:9.2e}")

h1s = [r["h1_norm"] for r in rep.details["approach"]]
print("\nH1 spread along the approach:", max(h1s) / min(h1s))

# mass identity at the bracket midpoint, the quantity the bracket width
# actually controls
c_mid = rep.details["c_midpoint"]
mass = integrate(GridFunction(grid, h.values * np.exp(sol.u.values)))
print("mass defect at midpoint:", abs(mass - c_mid * grid.total_length),
      " (bracket_tol |Gamma| =", bracket_tol * grid.total_length, ")")
