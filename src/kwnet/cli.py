"""Command-line front end: solve, threshold, verify.

Exit codes: 0 success, 1 input error (usage, option values, parsing,
validation, grid mismatch), 2 not solvable (necessary conditions fail),
3 iteration failure (no convergence / no upper solution), 4 verification
defects above tolerance.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import warnings

import numpy as np

from .graph import GridFunction, _read_only, integrate
from .assembly import apply_residual
from .problemfile import ProblemSpec, load_problem
from .solvers import DEFAULT_TOL, SolveCounts, classify, estimate_threshold, solve
from .verify import identity_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_SOLVABLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DEFECTS = 4
_CSV_ROW = np.dtype([("id", object), ("s", float), ("u", float)])
# (spec, text, u) of the last solution CSV written in this process, until
# the next read of a solution CSV (see _read_solution_csv)
_written = None


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
    # deterministic layout: edges by id, samples from tail to head; %.17g
    # reads back as the same double
    global _written
    grid, edges = spec.grid, spec.graph.edges
    order = sorted(range(len(edges)), key=lambda j: edges[j].id)
    nodes = grid.edge_nodes(order)
    count = np.diff(grid.edge_start).tolist()
    # one row template per edge, its id quoted as the csv module would
    ids = ['"%s"' % i.replace('"', '""') if set(i) & set(',"\r\n') else i
           for i in (str(edges[j].id) for j in order)]
    rows = "".join((i.replace("%", "%%") + ",%.17g,%.17g\n") * count[j]
                   for i, j in zip(ids, order))
    su = np.column_stack((grid.node_s[nodes], u.values[grid.node_dof[nodes]]))
    text = "edge_id,s,u\n" + rows % tuple(su.ravel().tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    _written = (spec, text, u)


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
        "verdict": dataclasses.asdict(verdict),
    }

    if not verdict.ok:
        _write_json(report_path, dict(base, status="NotSolvable"))
        print(f"not solvable: {verdict.reason} (report: {report_path})", file=sys.stderr)
        return EXIT_NOT_SOLVABLE

    try:
        sol = solve(spec.h, c, tol=args.tol)
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
        **{f.name: est.details.get(f.name) for f in dataclasses.fields(SolveCounts)},
    }
    _write_json(out_path, payload)
    if est.minus_infinity:
        print(f"threshold is minus infinity (h <= 0 everywhere); report: {out_path}")
    else:
        print(f"threshold bracket [{est.c_lo:.8g}, {est.c_hi:.8g}] "
              f"width {est.c_hi - est.c_lo:.3g}; report: {out_path}")
    return EXIT_OK


def _read_solution_csv(path: str, spec: ProblemSpec) -> GridFunction:
    """Rebuild a GridFunction from cmd_solve's CSV; ValueError on mismatch.

    The file is read once.  When its text is the one _write_solution_csv
    last wrote for this very spec, the u written is returned, which is
    bitwise what the parse gives (%.17g round-trips); every read forgets
    that record, so no solution text outlives its verify.  Otherwise,
    after the header, numpy's C reader parses every row in one pass,
    quoted ids included.  A text it refuses, or one with a non-finite
    number, is read again by the csv module (``_scan_csv``), which names
    the first bad row; text that only Python's float reads (``1_0``) is
    read there too.  The rows of an edge may be interleaved with other
    edges' rows.  Faults are reported in this order: the first bad row;
    unknown or missing edges; then sample counts, arclengths and vertex
    values unlike an earlier edge's, each for the edge whose rows start
    first.
    """
    global _written
    written, _written = _written, None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read solution file {path!r}: {exc}") from exc
    if written is not None and written[0] is spec and written[1] == text:
        return GridFunction(spec.grid, written[2].values)

    fh = io.StringIO(text, newline="")
    _csv_header(path, csv.reader(fh))
    try:
        with warnings.catch_warnings():
            # a header-only file: "no samples for edges" names it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",", quotechar='"',
                              comments=None, ndmin=1)
    except ValueError:
        rows = None
    if rows is not None and np.isfinite(rows["s"]).all() and np.isfinite(rows["u"]).all():
        ids, s_vals, u_vals = rows["id"].tolist(), rows["s"], rows["u"]
    else:
        ids, s_vals, u_vals = _scan_csv(path, text)

    grid = spec.grid
    position = grid.graph.edge_position
    extra = sorted(set(ids) - position.keys())
    if extra:
        raise ValueError(f"{path}: unknown edges {extra}")
    missing = sorted(position.keys() - set(ids))
    if missing:
        raise ValueError(f"{path}: no samples for edges {missing}")

    edge = np.fromiter(map(position.__getitem__, ids), dtype=np.intp, count=len(ids))
    first = np.unique(edge, return_index=True)[1]  # each edge's first row

    def fault(bad, message):
        if np.any(bad):
            j = np.flatnonzero(bad)[np.argmin(first[bad])]
            raise ValueError(f"{path}: edge {spec.graph.edges[j].id!r} " + message(j))

    want = np.diff(grid.edge_start)
    count = np.bincount(edge, minlength=want.size)
    fault(count != want, lambda j: f"has {count[j]} samples, the problem grid wants "
                                   f"{want[j]} (cells mismatch)")
    # sorted by edge, the rows are the grid's nodes in order
    order = np.argsort(edge, kind="stable")
    s_vals, u_vals = s_vals[order], u_vals[order]
    length = grid.node_s[grid.edge_start[1:] - 1]
    far = np.abs(s_vals - grid.node_s) > 1e-9 * (1.0 + length[grid.node_edge])
    fault(np.bincount(grid.node_edge[far], minlength=want.size) > 0,
          lambda j: "arclength samples do not match the grid")
    # each vertex value against the one the edge before it wrote there
    ends = grid.end_nodes
    ends = ends[np.lexsort((first[grid.node_edge[ends]], grid.node_dof[ends]))]
    dof = grid.node_dof[ends]
    same = dof[1:] == dof[:-1]
    prev, cur = u_vals[ends[:-1]], u_vals[ends[1:]]
    clash = ends[1:][same & (np.abs(prev - cur) > 1e-9 * (1.0 + np.abs(cur)))]
    fault(np.bincount(grid.node_edge[clash], minlength=want.size) > 0,
          lambda j: "disagrees with shared vertex values")
    values = u_vals[grid.dof_node]
    last = ends[np.append(~same, True)]  # a vertex keeps the last edge's value
    values[grid.node_dof[last]] = u_vals[last]
    return GridFunction(grid, _read_only(values))


def _csv_header(path: str, reader) -> None:
    header = next(reader, None)
    if header is None or [c.strip() for c in header] != ["edge_id", "s", "u"]:
        raise ValueError(f"{path}: expected header edge_id,s,u")


def _scan_csv(path: str, text: str) -> tuple:
    """(ids, s, u) of the rows of the file ``path`` holding ``text`` by the
    csv module, skipping empty ones; ValueError names the first row that is
    not an id and two finite numbers, and for a non-finite one the file
    line the row ends on."""
    ids, s_vals, u_vals = [], [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    _csv_header(path, reader)
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"{path}: malformed row {row!r}")
        try:
            s, u = float(row[1]), float(row[2])
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric row {row!r}") from exc
        if not (math.isfinite(s) and math.isfinite(u)):
            # a NaN arclength would pass the comparison with the grid
            raise ValueError(f"{path}, line {reader.line_num}: "
                             f"non-finite value in row {row!r}")
        ids.append(row[0])
        s_vals.append(s)
        u_vals.append(u)
    return ids, np.array(s_vals, dtype=float), np.array(u_vals, dtype=float)


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
    node = grid.dof_node[worst]
    j = grid.node_edge[node]
    worst_loc = {"edge_id": spec.graph.edges[j].id, "s": float(grid.node_s[node])}

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
        # the scheme's own form of the identity, exact up to roundoff
        checks["energy_identity"] = {
            "value": ident.discrete_energy_defect,
            "bound": tol * max(1.0, abs(ident.energy_target)),
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
    if c == 0.0:
        payload["midpoint_energy_defect"] = {
            "value": ident.energy_defect,
            "note": "continuum identity at cell midpoints: O(h^2) discretization error, not gated",
        }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out + ".verify", "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK if ok else EXIT_DEFECTS


class _Parser(argparse.ArgumentParser):
    """argparse's parser with its usage errors on exit code 1 (input error)
    rather than 2, which this CLI gives to problems that are not solvable."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kwnet",
        description="Solve d2u = c - h exp(u) on metric graphs with Kirchhoff "
                    "vertex conditions; estimate the negative-c solvability "
                    "threshold; verify solution files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem file and write CSV + report")
    ps.add_argument("problem", help="problem file (JSON)")
    ps.add_argument("--c", type=float, default=None, help="override c from the file")
    ps.add_argument("--tol", type=float, default=DEFAULT_TOL, help="solver tolerance")
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


# argparse keeps no state between parse_args calls: each call starts a fresh
# namespace from the declared defaults, so one parser serves every main call
_parser = functools.cache(build_parser)


def _option_error(args) -> str | None:
    """What is wrong with the numeric options, if anything: --c must be
    finite, --tol and --bracket-tol positive and finite."""
    c = getattr(args, "c", None)
    if c is not None and not math.isfinite(c):
        return f"--c must be finite, got {c!r}"
    for name in ("tol", "bracket_tol"):
        value = getattr(args, name, None)
        if value is not None and not (0.0 < value < math.inf):
            return f"--{name.replace('_', '-')} must be positive and finite, got {value!r}"
    return None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    problem = _option_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_INPUT
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
