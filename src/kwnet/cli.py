"""Command-line front end: solve, threshold, verify.

Exit codes: 0 success, 1 input error (parse/validation/grid mismatch),
2 not solvable (necessary conditions fail), 3 iteration failure
(no convergence / no upper solution), 4 verification defects above tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .errors import NotSolvable
from .graph import GridFunction, integrate
from .assembly import apply_residual
from .problemfile import ProblemSpec, load_problem
from .solvers import classify, estimate_threshold, solve
from .verify import identity_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_SOLVABLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DEFECTS = 4


def _out_prefix(args) -> str:
    if args.out:
        return args.out
    root, _ = os.path.splitext(args.problem)
    return root


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_solution_csv(path: str, spec: ProblemSpec, u: GridFunction) -> None:
    # deterministic layout: edges by id, samples from tail to head
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge_id", "s", "u"])
        for edge in sorted(spec.graph.edges, key=lambda e: e.id):
            coords = spec.grid.edge_coords(edge.id)
            vals = u.edge_values(edge.id)
            for s, value in zip(coords, vals):
                writer.writerow([edge.id, repr(float(s)), repr(float(value))])


def _verdict_dict(verdict) -> dict:
    return {
        "status": verdict.status,
        "reason": verdict.reason,
        "integral_h": verdict.integral_h,
        "max_h": verdict.max_h,
        "min_h": verdict.min_h,
    }


def cmd_solve(args) -> int:
    try:
        spec = load_problem(args.problem, cells_override=args.cells)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    c = args.c if args.c is not None else spec.c
    if c is None:
        print("error: no c in the problem file and no --c given", file=sys.stderr)
        return EXIT_INPUT

    prefix = _out_prefix(args)
    report_path = prefix + ".report"
    verdict = classify(spec.h, c)
    base = {
        "problem": args.problem,
        "c": c,
        "tolerance": args.tol,
        "cells": spec.cells,
        "total_length": spec.grid.total_length,
        "verdict": _verdict_dict(verdict),
    }

    if not verdict.ok:
        _write_json(report_path, dict(base, status="NotSolvable"))
        print(f"not solvable: {verdict.reason} (report: {report_path})", file=sys.stderr)
        return EXIT_NOT_SOLVABLE

    try:
        sol = solve(spec.h, c, tol=args.tol, max_iter=args.max_iter)
    except NotSolvable as exc:  # classify above should have caught this
        _write_json(report_path, dict(base, status="NotSolvable", message=str(exc)))
        print(f"not solvable: {exc}", file=sys.stderr)
        return EXIT_NOT_SOLVABLE
    except RuntimeError as exc:
        _write_json(report_path, dict(
            base, status="Failed", error=type(exc).__name__, message=str(exc)))
        print(f"solve failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    csv_path = prefix + ".solution.csv"
    _write_solution_csv(csv_path, spec, sol.u)
    _write_json(report_path, dict(base, **sol.report.to_dict()))
    print(f"converged: residual {sol.report.final_residual:.3e} "
          f"in {sol.report.iterations} iterations ({csv_path}, {report_path})")
    return EXIT_OK


def cmd_threshold(args) -> int:
    try:
        spec = load_problem(args.problem, cells_override=args.cells)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    prefix = _out_prefix(args)
    out_path = prefix + ".threshold"

    ih = integrate(spec.h)
    if ih >= 0.0:
        _write_json(out_path, {
            "problem": args.problem,
            "error": "IntegralNotNegative",
            "integral_h": ih,
        })
        print(f"error: int h = {ih:.6g} >= 0; no negative-c threshold", file=sys.stderr)
        return EXIT_NOT_SOLVABLE

    try:
        est = estimate_threshold(spec.h, bracket_tol=args.bracket_tol)
    except RuntimeError as exc:
        print(f"threshold estimation failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    payload = {
        "problem": args.problem,
        "integral_h": ih,
        "minus_infinity": est.minus_infinity,
        "c_lo": est.c_lo,
        "c_hi": est.c_hi,
        "analytic_upper_bound": est.analytic_upper_bound,
        "width": (None if est.minus_infinity else est.c_hi - est.c_lo),
        "probes": est.details.get("probes"),
        "c_star": est.details.get("c_star"),
        "branch_points": est.details.get("branch"),
    }
    _write_json(out_path, payload)
    if est.minus_infinity:
        print(f"threshold is minus infinity (h <= 0 everywhere); report: {out_path}")
    else:
        print(f"threshold bracket [{est.c_lo:.8g}, {est.c_hi:.8g}] "
              f"width {est.c_hi - est.c_lo:.3g}; report: {out_path}")
    return EXIT_OK


def _read_solution_csv(path: str, spec: ProblemSpec) -> GridFunction:
    """Rebuild a GridFunction from cmd_solve's CSV; ValueError on mismatch."""
    per_edge: dict = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header] != ["edge_id", "s", "u"]:
                raise ValueError(f"{path}: expected header edge_id,s,u")
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}: malformed row {row!r}")
                eid, s_txt, u_txt = row
                try:
                    s_val, u_val = float(s_txt), float(u_txt)
                except ValueError as exc:
                    raise ValueError(f"{path}: non-numeric row {row!r}") from exc
                if not (math.isfinite(s_val) and math.isfinite(u_val)):
                    # a NaN arclength would pass the grid comparison below
                    raise ValueError(f"{path}, line {reader.line_num}: non-finite value "
                                     f"in row {row!r}")
                per_edge.setdefault(eid, []).append((s_val, u_val))
    except OSError as exc:
        raise ValueError(f"cannot read solution file {path!r}: {exc}") from exc

    grid = spec.grid
    known = {e.id for e in spec.graph.edges}
    extra = sorted(set(per_edge) - known)
    if extra:
        raise ValueError(f"{path}: unknown edges {extra}")
    missing = sorted(known - set(per_edge))
    if missing:
        raise ValueError(f"{path}: no samples for edges {missing}")

    values = np.full(grid.ndof, np.nan)
    for eid, rows in per_edge.items():
        coords = grid.edge_coords(eid)
        if len(rows) != coords.size:
            raise ValueError(
                f"{path}: edge {eid!r} has {len(rows)} samples, "
                f"the problem grid wants {coords.size} (cells mismatch)"
            )
        s_vals = np.array([r[0] for r in rows])
        u_vals = np.array([r[1] for r in rows])
        if float(np.max(np.abs(s_vals - coords))) > 1e-9 * (1.0 + coords[-1]):
            raise ValueError(f"{path}: edge {eid!r} arclength samples do not match the grid")
        dofs = grid.edge_dofs[eid]
        seen = ~np.isnan(values[dofs])
        clash = seen & (np.abs(values[dofs] - u_vals)
                        > 1e-9 * (1.0 + np.abs(u_vals)))
        if np.any(clash):
            raise ValueError(f"{path}: edge {eid!r} disagrees with shared vertex values")
        values[dofs] = u_vals
    if np.any(np.isnan(values)):
        raise ValueError(f"{path}: some grid nodes received no sample")
    return GridFunction(grid, values)


def cmd_verify(args) -> int:
    try:
        spec = load_problem(args.problem, cells_override=args.cells)
        u = _read_solution_csv(args.solution, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    c = args.c if args.c is not None else spec.c
    if c is None:
        print("error: no c in the problem file and no --c given", file=sys.stderr)
        return EXIT_INPUT

    res = apply_residual(u, spec.h, c)
    ident = identity_report(u, spec.h, c)
    grid = spec.grid

    # locate the worst pointwise defect for the report
    scaled = np.abs(res.residual) / grid.weights
    worst = int(np.argmax(scaled))
    worst_loc = None
    for edge in spec.graph.edges:
        dofs = grid.edge_dofs[edge.id]
        hit = np.nonzero(dofs == worst)[0]
        if hit.size:
            worst_loc = {"edge_id": edge.id, "s": float(hit[0] * grid.spacing[edge.id])}
            break

    tol = args.tol
    total = grid.total_length
    checks = {
        "weak_residual": {
            "value": res.weak_residual_norm,
            "bound": tol * (1.0 + abs(c)),
        },
        "mass_identity": {
            "value": ident.mass_defect,
            "bound": tol * (1.0 + abs(c)) * total,
        },
    }
    if c == 0.0:
        checks["energy_identity"] = {
            "value": ident.energy_defect,
            "bound": tol * max(1.0, abs(integrate(spec.h))),
        }
    ok = all(entry["value"] <= entry["bound"] for entry in checks.values())
    for entry in checks.values():
        entry["ok"] = bool(entry["value"] <= entry["bound"])

    payload = {
        "problem": args.problem,
        "solution": args.solution,
        "c": c,
        "tolerance": tol,
        "checks": checks,
        "worst_residual": {"value": float(scaled[worst]), "location": worst_loc},
        "status": "ok" if ok else "defects",
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _write_json(args.out + ".verify", payload)
    print(text)
    return EXIT_OK if ok else EXIT_DEFECTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwnet",
        description="Solve d2u = c - h exp(u) on metric graphs with Kirchhoff "
                    "vertex conditions; estimate the negative-c solvability "
                    "threshold; verify solution files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem file and write CSV + report")
    ps.add_argument("problem", help="problem file (JSON)")
    ps.add_argument("--c", type=float, default=None, help="override c from the file")
    ps.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
    ps.add_argument("--max-iter", type=int, default=None, help="iteration cap")
    ps.add_argument("--cells", type=int, default=None,
                    help="cells per edge, overriding the file and defaults")
    ps.add_argument("--out", default=None,
                    help="output prefix (default: problem file without extension)")
    ps.set_defaults(func=cmd_solve)

    pt = sub.add_parser("threshold", help="bracket the c < 0 solvability threshold")
    pt.add_argument("problem", help="problem file (JSON)")
    pt.add_argument("--bracket-tol", type=float, default=None,
                    help="bracket width target (default 1e-4 of the certified c)")
    pt.add_argument("--cells", type=int, default=None,
                    help="cells per edge, overriding the file and defaults")
    pt.add_argument("--out", default=None, help="output prefix")
    pt.set_defaults(func=cmd_threshold)

    pv = sub.add_parser("verify", help="check a solution CSV against its problem")
    pv.add_argument("problem", help="problem file (JSON)")
    pv.add_argument("solution", help="solution CSV from the solve command")
    pv.add_argument("--c", type=float, default=None, help="override c from the file")
    pv.add_argument("--tol", type=float, default=1e-4,
                    help="acceptance tolerance for residual and identities")
    pv.add_argument("--cells", type=int, default=None,
                    help="cells per edge, overriding the file and defaults")
    pv.add_argument("--out", default=None, help="also write the report to PREFIX.verify")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
