"""Compute bench/reference.json: oracle folds and certified c for the inputs.

The fold of every sign-changing h the benchmark uses is located with
``kwnet.verify.oracle_newton`` alone (damped Newton on the full residual,
sharing no code with the solvers it checks): continue downward from the
certified c, double until the oracle diverges, then bisect, reseeding each
probe from the last converged state.  ``implied_c`` comes from
``kwnet.build_upper``; it is the solver's own certificate and only decides
which c count as "certified" inputs.

Run from the repository root (takes a few minutes on two cores):

    PYTHONPATH=src python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import problems  # noqa: E402
from kwnet import (  # noqa: E402
    apply_residual,
    build_upper,
    estimate_threshold,
    identity_report,
    integrate,
    oracle_newton,
    parse_problem,
    solve,
)
from kwnet.errors import Diverged  # noqa: E402

VARIANT_SEEDS = range(8)
FOLD_GAP = 1e-6  # relative to |implied_c|


def oracle_fold(h, c_top: float, gap: float) -> list:
    """[lo, hi]: the oracle diverges at lo and converges at hi."""
    seed = oracle_newton(h, c_top).u
    hi, lo = c_top, 2.0 * c_top
    for _ in range(30):
        try:
            seed = oracle_newton(h, lo, seed=seed).u
            hi, lo = lo, 2.0 * lo
        except Diverged:
            break
    while hi - lo > gap:
        mid = 0.5 * (lo + hi)
        try:
            seed = oracle_newton(h, mid, seed=seed).u
            hi = mid
        except Diverged:
            lo = mid
    return [lo, hi]


def entry(vertices, edges, h, cells: int, fold: bool = True) -> dict:
    spec = parse_problem(problems.problem_dict(vertices, edges, h, cells=cells))
    implied = build_upper(spec.h).implied_c
    out = {"cells": cells, "implied_c": implied}
    if fold:
        out["fold"] = oracle_fold(spec.h, implied, FOLD_GAP * abs(implied))
    return out


def solves(spec, c: float) -> bool:
    """Whether kwnet converges at (h, c) and the solution passes the checks
    `kwnet verify` makes at its default tolerance."""
    try:
        sol = solve(spec.h, c)
    except RuntimeError:
        return False
    if not sol.report.final_residual <= problems.SOLVE_TOL * (1.0 + abs(c)):
        return False
    bound = problems.VERIFY_TOL * (1.0 + abs(c))
    if apply_residual(sol.u, spec.h, c).weak_residual_norm > bound:
        return False
    ident = identity_report(sol.u, spec.h, c)
    if ident.mass_defect > bound * spec.grid.total_length:
        return False
    return c != 0.0 or (ident.energy_defect
                        <= problems.VERIFY_TOL * max(1.0, abs(integrate(spec.h))))


def vet(vertices, edges, var: dict, cells_by_route: dict) -> dict:
    """[cells, parameter, converged, seconds] for every draw a route can make."""
    out = {}
    for route, cells_list in cells_by_route.items():
        rows = []
        for cells in cells_list:
            spec = parse_problem(problems.problem_dict(vertices, edges, var["h"], cells=cells))
            for p in problems.ROUTE_PARAMS[route]:
                t0 = time.perf_counter()
                ok = solves(spec, problems.route_c(route, p, var))
                rows.append([cells, p, ok, round(time.perf_counter() - t0, 3)])
        out[route] = rows
        print("   ", route, sum(r[2] for r in rows), "of", len(rows), "converge", flush=True)
    return out


def threshold_ok(vertices, edges, var: dict) -> bool:
    spec = parse_problem(problems.problem_dict(vertices, edges, var["h"], cells=var["cells"]))
    est = estimate_threshold(spec.h)
    return problems.check_bracket(est.c_lo, est.c_hi, var["fold"], var["implied_c"]) is None


def main() -> None:
    ref = {"canonical": {}, "variants": [], "fine_mesh": {}, "many_edges": []}
    edge_v, edge_e = problems.SMALL_GRAPHS["edge"]
    for name, cells in (("edge96", 96), ("edge768", 768)):
        ref["canonical"][name] = entry(edge_v, edge_e, problems.CANONICAL_H, cells)
        print(name, ref["canonical"][name], flush=True)

    # small-graph variants: folds at 96 cells (solve-mix, fine-mesh star3)
    # and at the threshold workload's cell counts
    mix_cells = {route: cells for (table, route), cells in problems.VETTED_CELLS.items()
                 if table == "mix"}
    for gname, (vertices, edges) in problems.SMALL_GRAPHS.items():
        for vseed in VARIANT_SEEDS:
            h = problems.small_variant_h(gname, vseed)
            for cells in [96] + {"star3": [32], "theta": [24]}.get(gname, []):
                e = dict(graph=gname, seed=vseed, h=h, **entry(vertices, edges, h, cells))
                print(gname, vseed, cells, e["implied_c"], e["fold"], flush=True)
                if cells == 96:
                    e["vetted"] = vet(vertices, edges, e, mix_cells)
                else:
                    e["threshold_ok"] = threshold_ok(vertices, edges, e)
                    print("    threshold ok:", e["threshold_ok"], flush=True)
                ref["variants"].append(e)

    # fine-mesh sweeps: the canonical edge and one star3 variant
    star = next(v for v in ref["variants"] if v["graph"] == "star3"
                and v["seed"] == problems.FINE_STAR_VARIANT and v["cells"] == 96)
    for gname, base in (("edge", dict(ref["canonical"]["edge96"], h=problems.CANONICAL_H)),
                        ("star3", star)):
        vertices, edges = problems.SMALL_GRAPHS[gname]
        e = {k: base[k] for k in ("h", "implied_c", "fold")}
        print("fine-mesh", gname, flush=True)
        e["vetted"] = vet(vertices, edges, e, {route: problems.FINE_CELLS[gname]
                                               for route in problems.FINE_ROUTES})
        ref["fine_mesh"][gname] = e

    # many-edge graphs: implied_c and the c = 0 / certified outcomes
    many_cells = {route: cells for (table, route), cells in problems.VETTED_CELLS.items()
                  if table == "many"}
    for gname in problems.MANY_GRAPHS:
        for vseed in VARIANT_SEEDS:
            vertices, edges, h = problems.many_edges_problem(gname, vseed)
            e = dict(graph=gname, seed=vseed, h_sha1=problems.h_digest(h),
                     **entry(vertices, edges, h, problems.MANY_CELLS, fold=False))
            print(gname, vseed, e["implied_c"], flush=True)
            e["vetted"] = vet(vertices, edges, dict(e, h=h), many_cells)
            ref["many_edges"].append(e)

    with open(problems.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
