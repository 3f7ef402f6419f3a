"""
The critical case: descending to the threshold itself
=====================================================

Right at the solvability threshold c(h) the monotone machinery runs out
of upper solutions, but solutions still exist.  The construction follows
solutions down a ladder of c values toward the threshold, trapping each
one in a box [-A, psi_k] whose ceiling psi_k is a solution at a slightly
smaller c, hence an upper solution, and finding it there by monotone
iteration; the point of the exercise is that the H1 norms stay bounded
along the way, so the ladder has a limit.  Rungs that found no solution
would be listed in the report's rejected_rungs.
"""

import numpy as np

from kwnet import (
    GridFunction,
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

sol = solve_critical(h, est)
rep = sol.report
print("method:", rep.method, " status:", rep.status)
print("c_final:", rep.details["c_final"],
      " c_midpoint:", rep.details["c_midpoint"])

# the rung log: c values walked, H1 norms, and the energy bound that
# keeps them honest (dirichlet_half <= energy_cap is the boundedness
# estimate, checked per rung)
print("\n rung    c           |u|_H1     1/2|du|^2   energy cap")
for i, r in enumerate(rep.details["rungs"]):
    print(f"  {i:2d}  {r['c']:.8f}  {r['h1_norm']:9.5f}  {r['dirichlet_half']:9.5f}"
          f"  {r['energy_cap']:10.5f}")

print("rejected rungs:", rep.details["rejected_rungs"])

h1s = [r["h1_norm"] for r in rep.details["rungs"]]
print("\nH1 spread along the descent:", max(h1s) / min(h1s))

# mass identity at the bracket midpoint, the quantity the bracket width
# actually controls
c_mid = rep.details["c_midpoint"]
mass = integrate(GridFunction(grid, h.values * np.exp(sol.u.values)))
print("mass defect at midpoint:", abs(mass - c_mid * grid.total_length),
      " (bracket_tol |Gamma| =", bracket_tol * grid.total_length, ")")
