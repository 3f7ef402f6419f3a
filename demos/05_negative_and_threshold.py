"""
The c < 0 case: monotone iteration and the solvability threshold
================================================================

For c < 0 solvability needs int h < 0 -- and, when h takes positive
values, c cannot be too negative: there is a threshold c(h) below which
no solution exists.  The solver works with ordered pairs: an upper
solution u+ and a constant lower solution u-, squeezed together by
shifted linear sweeps that preserve the ordering at every step.
"""

import numpy as np

from kwnet import (
    build_graph,
    build_grid,
    build_upper,
    constant,
    estimate_threshold,
    integrate,
    sample_function,
    solve,
    solve_negative,
)
from kwnet.errors import NoUpperSolutionFound

graph = build_graph(["p", "q"], [("e1", "p", "q", 1.0)])
grid = build_grid(graph, {"e1": 96})

# ---------------------------------------------------------------------------
# h <= 0 everywhere: every c < 0 works, the threshold is minus infinity
h_neg = constant(grid, -1.0)
for c in (-1.0, -10.0, -100.0):
    sol = solve(h_neg, c)
    # closed form ln(c/h0) again
    err = float(np.max(np.abs(sol.u.values - np.log(-c))))
    print(f"c = {c:6.1f}: {sol.report.method:18s} sup err vs ln(-c) = {err:.2e}")
est = estimate_threshold(h_neg)
print("threshold:", "minus infinity" if est.minus_infinity else est.c_lo)

# ---------------------------------------------------------------------------
# sign-changing h: the scaled-flux construction certifies a range of c
h = sample_function(grid, {"e1": lambda s: np.cos(np.pi * s) - 0.1})
print("\nint h =", integrate(h), " max h =", float(np.max(h.values)))

params = build_upper(h)
print("upper solution u+ = a m + b with a =", params.a, " b =", params.b)
print("certified for c >=", params.implied_c)

sol = solve_negative(h, 0.5 * params.implied_c)   # inside the certified range
print("at c = implied_c/2:", sol.report.method,
      " iterations:", sol.report.iterations)

# below the certified range a walk along the solution branch supplies u+:
# a solution at some c_psi just below c is a strict upper solution at c
sol = solve_negative(h, 2.0 * params.implied_c)
print("at c = 2 implied_c: ", sol.report.method,
      " iterations:", sol.report.iterations,
      " upper solution from c_psi =", sol.report.details["c_psi"])

# ---------------------------------------------------------------------------
# the threshold bracket: the branch of solutions, traced with the mean of u
# as its parameter, turns back at the threshold (its fold, dc/dmu = 0)
est = estimate_threshold(h, bracket_tol=1e-5)
print("\nfold of the solution branch: c* =", est.details["c_star"])
print("threshold bracket: [", est.c_lo, ",", est.c_hi, "]")
print("analytic upper bound:", est.analytic_upper_bound,
      " branch points:", est.details["probes"])

solve_negative(h, est.c_hi)          # top of the bracket solves
try:
    solve_negative(h, est.c_lo)      # bottom lies below the fold
except NoUpperSolutionFound as exc:
    print("bracket bottom refused:", exc)
    print("the fold it names: c* =", exc.c_star)
