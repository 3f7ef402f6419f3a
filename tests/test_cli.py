"""End-to-end CLI runs, in process via main(argv)."""

import csv
import itertools
import json
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kwnet import GridFunction, assembly, cli, parse_problem, problemfile
from kwnet.cli import _read_solution_csv, _write_solution_csv, main


def write_problem(tmp_path, name="prob.json", **overrides):
    data = {
        "vertices": ["p", "q"],
        "edges": [{"id": "e1", "tail": "p", "head": "q", "length": 1.0, "cells": 64}],
        "h": "-1",
        "c": -2,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_csv_u(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["edge_id", "s", "u"]
    return np.array([float(r[2]) for r in rows[1:]])


def test_solve_constant_case(tmp_path, capsys):
    prob = write_problem(tmp_path)
    assert main(["solve", str(prob)]) == 0
    out = capsys.readouterr().out
    assert "converged" in out

    u = read_csv_u(tmp_path / "prob.solution.csv")
    assert u.size == 65
    assert np.max(np.abs(u - math.log(2.0))) <= 1e-10

    report = json.loads((tmp_path / "prob.report").read_text())
    assert report["status"] == "Converged"
    assert report["c"] == -2.0
    assert report["verdict"]["status"] == "NecessaryOK"
    assert report["final_residual"] <= 1e-8 * (1 + 2.0)
    assert report["method"].startswith("monotone")


def test_solve_not_solvable_writes_report(tmp_path, capsys):
    prob = write_problem(tmp_path)
    assert main(["solve", str(prob), "--c", "0"]) == 2
    assert "not solvable" in capsys.readouterr().err
    report = json.loads((tmp_path / "prob.report").read_text())
    assert report["status"] == "NotSolvable"
    assert report["verdict"]["reason"] == "HDoesNotChangeSign"
    assert not (tmp_path / "prob.solution.csv").exists()


def test_solve_failure_writes_a_report_and_no_solution(tmp_path, capsys):
    # c = -3 lies far below the fold of the solution branch at c* = -1.588
    prob = write_problem(tmp_path, h="cos(pi*s) - 0.5", edges=[
        {"id": "e1", "tail": "p", "head": "q", "length": 1.0, "cells": 32}])
    assert main(["solve", str(prob), "--c", "-3"]) == 3
    assert capsys.readouterr().err.startswith("solve failed: NoUpperSolutionFound: ")
    assert not (tmp_path / "prob.solution.csv").exists()
    report = json.loads((tmp_path / "prob.report").read_text())
    assert report["status"] == "Failed" and report["error"] == "NoUpperSolutionFound"
    head = "c = -3.0 lies below the fold of the solution branch at c* = "
    assert report["message"].startswith(head)
    c_star = float(report["message"][len(head):].split()[0])
    assert main(["threshold", str(prob)]) == 0
    bracket = json.loads((tmp_path / "prob.threshold").read_text())
    assert bracket["c_lo"] <= c_star <= bracket["c_hi"]


def test_solve_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    assert main(["threshold", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    noc = write_problem(tmp_path, name="noc.json")
    data = json.loads(noc.read_text())
    del data["c"]
    noc.write_text(json.dumps(data))
    assert main(["solve", str(noc)]) == 1
    assert "no c" in capsys.readouterr().err
    # verify asks for c once the solution file has been read
    assert main(["solve", str(noc), "--c", "-2"]) == 0
    capsys.readouterr()
    assert main(["verify", str(noc), str(tmp_path / "noc.solution.csv")]) == 1
    assert "no c" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["cos(pi*s) - 1/0", "2^10000", "(-1)^0.5"])
def test_solve_reports_arithmetic_errors_in_h(tmp_path, capsys, bad):
    prob = write_problem(tmp_path, h=bad)
    assert main(["solve", str(prob)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expression" in err


def test_solve_rejects_complex_h(tmp_path, capsys):
    prob = write_problem(tmp_path, h="((-1.0) ^ pi) * s + 0.2")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no ComplexWarning
        assert main(["solve", str(prob)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: edge 'e1': ") and "complex values" in err
    assert not (tmp_path / "prob.solution.csv").exists()


@pytest.mark.parametrize("edit", [
    {"length": None}, {"length": [1.0]}, {"id": ["e1"]}, {"tail": ["p"]}, {"head": ["q"]},
    {"vertex": {"id": ["p"]}},
], ids=["null-length", "list-length", "list-id", "list-tail", "list-head", "list-vertex-id"])
def test_malformed_problem_files_exit_1_without_a_traceback(tmp_path, capsys, edit):
    edge = {"id": "e1", "tail": "p", "head": "q", "length": 1.0, "cells": 64}
    vertex = edit.pop("vertex", "p")
    edge.update(edit)
    prob = write_problem(tmp_path, vertices=[vertex, "q"], edges=[edge])
    # the message names the entry at fault
    named = f"edge entry {edge!r}: " if vertex == "p" else "vertex entries must be string ids"
    for command in ("solve", "threshold"):
        assert main([command, str(prob)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + named) and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("edit, named", [
    ({"edges": [{"id": "e1", "tail": "p", "head": "q", "length": "1.5", "cells": 64}]},
     "edge entry "),
    ({"c": True}, '"c" must be a number'),
    ({"h": {"e1": ["-1"] * 65}}, "edge 'e1': h samples must be numbers"),
], ids=["string-length", "boolean-c", "string-samples"])
def test_numbers_given_as_strings_or_booleans_exit_1(tmp_path, capsys, edit, named):
    prob = write_problem(tmp_path, **edit)
    assert main(["solve", str(prob)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + named) and err.count("\n") == 1
    assert not (tmp_path / "prob.solution.csv").exists()


PROBLEM_FAULTS = [
    ("empty-vertices", {"vertices": []}, [], '"vertices" must be a non-empty list'),
    ("edges-not-a-list", {"edges": {"id": "e1"}}, [], '"edges" must be a non-empty list'),
    ("edge-not-an-object", {"edges": ["e1"]}, [], "edge entries must be objects: 'e1'"),
    ("edge-without-length", {"edges": [{"id": "e1", "tail": "p", "head": "q"}]}, [],
     "edge entry missing 'length'"),
    ("not-an-object", None, [], "problem file must decode to a JSON object"),
    ("one-cell-override", {}, ["--cells", "1"], "cells override must be at least 2"),
    ("h-as-a-list", {"h": [1.0, 2.0]}, [], '"h" must be an expression, a number, or an edge map'),
    ("ragged-h-samples", {"h": {"e1": [[1.0, 2.0], [3.0]]}}, [],
     "edge 'e1': h samples must be numbers"),
    ("h-entry-true", {"h": {"e1": True}}, [],
     "edge 'e1': h must be an expression, number, or array"),
    ("underscore-name", {"h": "_0 + s"}, [], "edge 'e1': unknown name '_0'"),
]


@pytest.mark.parametrize("name, edit, argv, named", PROBLEM_FAULTS,
                         ids=[f[0] for f in PROBLEM_FAULTS])
def test_problem_file_rejections_name_the_fault(tmp_path, capsys, name, edit, argv, named):
    prob = write_problem(tmp_path, **(edit or {}))
    if edit is None:
        prob.write_text(json.dumps([json.loads(prob.read_text())]))
    assert main(["solve", str(prob), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + named) and err.count("\n") == 1
    assert not (tmp_path / "prob.solution.csv").exists()


def test_ids_are_strings_so_verify_reads_what_solve_wrote(tmp_path, capsys):
    numeric = write_problem(tmp_path, vertices=[{"id": 1}, {"id": 2}],
                            edges=[{"id": 7, "tail": 1, "head": 2, "length": 1.0, "cells": 16}])
    assert main(["solve", str(numeric)]) == 1
    assert "must be string" in capsys.readouterr().err
    assert not (tmp_path / "prob.solution.csv").exists()
    # the same problem with string ids round trips
    prob = write_problem(tmp_path, vertices=[{"id": "1"}, {"id": "2"}],
                         edges=[{"id": "7", "tail": "1", "head": "2", "length": 1.0,
                                 "cells": 16}])
    assert main(["solve", str(prob)]) == 0
    assert main(["verify", str(prob), str(tmp_path / "prob.solution.csv")]) == 0


def test_solve_out_prefix_and_cells(tmp_path):
    prob = write_problem(tmp_path)
    out = tmp_path / "run1"
    assert main(["solve", str(prob), "--cells", "16", "--out", str(out)]) == 0
    u = read_csv_u(tmp_path / "run1.solution.csv")
    assert u.size == 17  # --cells override beats the file's 64
    report = json.loads((tmp_path / "run1.report").read_text())
    assert report["cells"] == {"e1": 16}


def test_threshold_minus_infinity(tmp_path, capsys):
    prob = write_problem(tmp_path)
    assert main(["threshold", str(prob)]) == 0
    assert "minus infinity" in capsys.readouterr().out
    payload = json.loads((tmp_path / "prob.threshold").read_text())
    assert payload["minus_infinity"] is True
    assert payload["c_lo"] is None and payload["c_hi"] is None


def test_threshold_rejects_nonnegative_integral(tmp_path, capsys):
    prob = write_problem(tmp_path, h="1")
    assert main(["threshold", str(prob)]) == 2
    assert ">= 0" in capsys.readouterr().err
    payload = json.loads((tmp_path / "prob.threshold").read_text())
    assert payload["error"] == "IntegralNotNegative"


def test_threshold_bracket(tmp_path, capsys):
    prob = write_problem(tmp_path, h="cos(pi*s) - 0.1")
    assert main(["threshold", str(prob), "--cells", "64"]) == 0
    payload = json.loads((tmp_path / "prob.threshold").read_text())
    assert payload["minus_infinity"] is False
    assert payload["c_lo"] < payload["c_hi"] < 0
    assert payload["width"] == pytest.approx(payload["c_hi"] - payload["c_lo"])
    assert payload["probes"] >= 3
    assert payload["c_hi"] <= payload["analytic_upper_bound"]
    assert payload["c_lo"] < payload["c_star"] < payload["c_hi"]
    assert set(payload["branch_points"][0]) == {"mu", "c", "dc_dmu", "newton_iters"}


def test_verify_roundtrip(tmp_path, capsys):
    prob = write_problem(tmp_path)
    assert main(["solve", str(prob)]) == 0
    capsys.readouterr()
    code = main(["verify", str(prob), str(tmp_path / "prob.solution.csv")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["checks"]["weak_residual"]["ok"]
    assert payload["checks"]["mass_identity"]["ok"]
    assert "energy_identity" not in payload["checks"]  # only at c = 0


def test_verify_flags_perturbation(tmp_path, capsys):
    prob = write_problem(tmp_path)
    assert main(["solve", str(prob)]) == 0
    capsys.readouterr()

    sol = tmp_path / "prob.solution.csv"
    with open(sol, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[30][2] = repr(float(rows[30][2]) + 0.1)
    with open(sol, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)

    out = tmp_path / "bad"
    code = main(["verify", str(prob), str(sol), "--out", str(out)])
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "defects"
    assert not payload["checks"]["weak_residual"]["ok"]
    # the bump sits at row 30 -> sample index 29 on a 1/64 grid
    loc = payload["worst_residual"]["location"]
    assert loc["edge_id"] == "e1"
    assert abs(loc["s"] - 29 / 64) < 1e-12
    # the file holds the text printed
    assert (tmp_path / "bad.verify").read_text() == json.dumps(
        payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value, c, check", [(800.0, "-2", "mass_identity"),
                                              (-800.0, "0", "energy_identity")])
def test_verify_reports_an_overflowing_solution_as_defects(tmp_path, capsys, value, c, check):
    # e^800 overflows in the mass identity, e^-(-800) in the discrete energy
    # identity of c = 0: each is a defect, exit 4, and no RuntimeWarning
    prob = write_problem(tmp_path)
    assert main(["solve", str(prob)]) == 0
    capsys.readouterr()
    sol = tmp_path / "prob.solution.csv"
    with open(sol, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[30][2] = repr(value)
    with open(sol, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", str(prob), str(sol), "--c", c]) == 4
    captured = capsys.readouterr()
    assert "RuntimeWarning" not in captured.err
    payload = json.loads(captured.out)
    assert payload["status"] == "defects" and not payload["checks"][check]["ok"]


def test_verify_of_an_overflow_where_h_vanishes_raises_no_warning(tmp_path, capsys):
    # e^800 at s = 0.25, where the sampled h is 0: h e^u is 0 * inf there,
    # which the residual takes as NaN (a defect, exit 4) with no RuntimeWarning
    h = [-1.0] * 9
    h[2] = 0.0
    prob = write_problem(tmp_path, edges=[{"id": "e1", "tail": "p", "head": "q", "length": 1.0,
                                           "cells": 8}], h={"e1": h})
    assert main(["solve", str(prob)]) == 0
    capsys.readouterr()
    sol = tmp_path / "prob.solution.csv"
    with open(sol, newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[3][1]) == 0.25
    rows[3][2] = "800"
    with open(sol, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", str(prob), str(sol)]) == 4
    captured = capsys.readouterr()
    assert "RuntimeWarning" not in captured.err
    assert json.loads(captured.out)["status"] == "defects"


def test_verify_rejects_cells_mismatch(tmp_path, capsys):
    prob = write_problem(tmp_path)
    assert main(["solve", str(prob)]) == 0
    capsys.readouterr()
    code = main(["verify", str(prob), str(tmp_path / "prob.solution.csv"),
                 "--cells", "32"])
    assert code == 1
    assert "cells mismatch" in capsys.readouterr().err


def test_verify_takes_the_solution_solve_just_wrote(tmp_path, capsys):
    prob = write_problem(tmp_path, h="cos(pi*s) - 0.5", c=-1)
    sol = str(tmp_path / "prob.solution.csv")
    problemfile._parse_text.cache_clear()
    with mock.patch.object(assembly, "assemble_stiffness",
                           wraps=assembly.assemble_stiffness) as assemble:
        assert main(["solve", str(prob)]) == 0
        capsys.readouterr()
        # the verify parses neither the problem nor the CSV again
        with mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed")), \
                mock.patch.object(cli, "_scan_csv", side_effect=AssertionError("re-scanned")):
            assert main(["verify", str(prob), sol]) == 0
        assert assemble.call_count == 1
    warm = capsys.readouterr().out
    # the read forgot the solution: a cold verify parses the file and
    # prints the same report
    problemfile._parse_text.cache_clear()
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        assert main(["verify", str(prob), sol]) == 0
    assert loadtxt.call_count == 1
    assert capsys.readouterr().out == warm

    # an edited file is parsed: u = 800 at one node is a defect
    assert main(["solve", str(prob)]) == 0
    capsys.readouterr()
    with open(sol, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[30][2] = "800"
    with open(sol, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        assert main(["verify", str(prob), sol]) == 4
    assert loadtxt.call_count == 1
    assert json.loads(capsys.readouterr().out)["status"] == "defects"


def test_verify_rejects_bad_csv(tmp_path, capsys):
    prob = write_problem(tmp_path)
    sol = tmp_path / "sol.csv"
    sol.write_text("edge,s,u\n")  # wrong header
    assert main(["verify", str(prob), str(sol)]) == 1
    sol.write_text("edge_id,s,u\ne1,0.0,1.0\n")  # missing nodes
    assert main(["verify", str(prob), str(sol)]) == 1
    assert main(["verify", str(prob), str(tmp_path / "nope.csv")]) == 1


@pytest.mark.parametrize("column", [1, 2])
def test_verify_rejects_nonfinite_csv(tmp_path, capsys, column):
    # a nan arclength compares False against any tolerance, so it must be
    # refused while reading, and so must a nan value of u
    prob = write_problem(tmp_path)
    assert main(["solve", str(prob)]) == 0
    sol = tmp_path / "prob.solution.csv"
    lines = sol.read_text().splitlines()
    fields = lines[3].split(",")
    fields[column] = "nan"
    lines[3] = ",".join(fields)
    sol.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(prob), str(sol)]) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "line 4" in err and str(sol) in err


def test_verify_c_override(tmp_path, capsys):
    prob = write_problem(tmp_path)
    assert main(["solve", str(prob)]) == 0
    capsys.readouterr()
    # verifying against the wrong c must surface defects, the right c passes
    assert main(["verify", str(prob), str(tmp_path / "prob.solution.csv"),
                 "--c", "-1"]) == 4
    capsys.readouterr()
    assert main(["verify", str(prob), str(tmp_path / "prob.solution.csv"),
                 "--c", "-2"]) == 0


def test_solve_zero_case_and_energy_check(tmp_path, capsys):
    prob = write_problem(tmp_path, name="zero.json",
                         h="cos(pi*s) - 0.1", c=0, edges=[
                             {"id": "e1", "tail": "p", "head": "q",
                              "length": 1.0, "cells": 256}])
    assert main(["solve", str(prob)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "zero.report").read_text())
    assert report["method"].endswith("(zero)")
    assert report["multiplier"] > 0

    code = main(["verify", str(prob), str(tmp_path / "zero.solution.csv")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["energy_identity"]["ok"]
    # the midpoint figure is reported beside the checks, not gated
    assert payload["midpoint_energy_defect"]["value"] > payload["checks"]["energy_identity"]["value"]
    assert "midpoint_energy_defect" not in payload["checks"]


# ----------------------------------------------------------------------
# solution CSV: exact round trip and the reader's checks
# ----------------------------------------------------------------------

def star_spec(n_edges, cells, seed=0):
    rng = np.random.default_rng(seed)
    return parse_problem({
        "vertices": ["o"] + [f"v{j}" for j in range(n_edges)],
        "edges": [{"id": f"e{j}", "tail": "o", "head": f"v{j}",
                   "length": float(rng.uniform(0.3, 2.0)), "cells": cells}
                  for j in range(n_edges)],
        "h": "cos(pi*s) - 0.1",
    })


def wild_values(spec, seed=1):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=spec.grid.ndof) * 10.0 ** rng.integers(-300, 300, spec.grid.ndof)
    v[:3] = (0.1, -0.0, 5e-324)
    return GridFunction(spec.grid, v)


@pytest.mark.parametrize("n_edges, cells", [(100, 8), (1, 3072)])
def test_csv_round_trip_is_bitwise(tmp_path, n_edges, cells):
    spec = star_spec(n_edges, cells)
    u = wild_values(spec)
    path = str(tmp_path / "u.csv")
    _write_solution_csv(path, spec, u)
    # the first read takes the u just written, the second parses the file
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        for _ in range(2):
            back = _read_solution_csv(path, spec)
            assert np.array_equal(back.values.view(np.int64), u.values.view(np.int64))
    assert loadtxt.call_count == 1
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + sum(c + 1 for c in spec.cells.values())
    # edges by id, each from tail to head
    assert [r[0] for r in rows[1:]] == sorted(r[0] for r in rows[1:])


def test_csv_accepts_interleaved_rows_and_quoted_ids(tmp_path):
    spec = parse_problem({
        "vertices": ["a", "b", "c"],
        "edges": [{"id": 'x,"y"', "tail": "a", "head": "b", "length": 1.0, "cells": 4},
                  {"id": "z", "tail": "b", "head": "c", "length": 0.5, "cells": 5}],
        "h": "-1",
    })
    u = wild_values(spec)
    path = tmp_path / "u.csv"
    _write_solution_csv(str(path), spec, u)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # alternate the two edges' rows, each edge's still from tail to head
    by_edge = {}
    for row in rows[1:]:
        by_edge.setdefault(row[0], []).append(row)
    body = [row for pair in itertools.zip_longest(*by_edge.values()) for row in pair if row]
    assert body != rows[1:]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + body)
    assert np.array_equal(_read_solution_csv(str(path), spec).values, u.values)


def _csv_lines(spec, u):
    lines = ["edge_id,s,u"]
    for edge in sorted(spec.graph.edges, key=lambda e: e.id):
        for s, v in zip(spec.grid.edge_coords(edge.id), u.edge_values(edge.id)):
            lines.append(f"{edge.id},{float(s)!r},{float(v)!r}")
    return lines


def _drop_rows(lines, edge_id, k):
    rows = [i for i, line in enumerate(lines) if line.startswith(edge_id + ",")]
    return [line for i, line in enumerate(lines) if i not in rows[-k:]]


def _edit(lines, index, column, text):
    fields = lines[index].split(",")
    fields[column] = text
    return lines[:index] + [",".join(fields)] + lines[index + 1:]


# path p -e1- q -e2- r with 4 and 3 cells: rows 1-5 are e1, rows 6-9 e2
CSV_FAULTS = [
    ("header", lambda L: ["edge,s,u"] + L[1:], "{p}: expected header edge_id,s,u"),
    ("width", lambda L: L[:3] + ["e1,0.5"] + L[3:], "{p}: malformed row ['e1', '0.5']"),
    ("non-numeric", lambda L: _edit(L, 2, 2, "abc"),
     "{p}: non-numeric row ['e1', '0.25', 'abc']"),
    ("non-finite", lambda L: _edit(L, 3, 1, "nan"),
     "{p}, line 4: non-finite value in row ['e1', 'nan', '0.5714285714285714']"),
    ("non-finite after blank lines", lambda L: L[:2] + ["", ""] + _edit(L, 7, 2, "inf")[2:],
     "{p}, line 10: non-finite value in row ['e2', '0.25', 'inf']"),
    # a quoted id that spans two lines counts as both
    ("non-finite after a multi-line id",
     lambda L: L[:2] + ['"z\nz",0.0,1.0'] + _edit(L, 7, 2, "inf")[2:],
     "{p}, line 10: non-finite value in row ['e2', '0.25', 'inf']"),
    ("unknown edge", lambda L: L + ["zz,0.0,1.0"], "{p}: unknown edges ['zz']"),
    ("missing edge", lambda L: L[:6], "{p}: no samples for edges ['e2']"),
    ("count", lambda L: _drop_rows(L, "e2", 1),
     "{p}: edge 'e2' has 3 samples, the problem grid wants 4 (cells mismatch)"),
    ("arclength", lambda L: _edit(L, 7, 1, "0.26"),
     "{p}: edge 'e2' arclength samples do not match the grid"),
    ("vertex clash", lambda L: _edit(L, 6, 2, "1.001"),
     "{p}: edge 'e2' disagrees with shared vertex values"),
]


@pytest.mark.parametrize("name, damage, message", CSV_FAULTS, ids=[f[0] for f in CSV_FAULTS])
def test_csv_rejections_name_the_fault(tmp_path, name, damage, message):
    spec = parse_problem({
        "vertices": ["p", "q", "r"],
        "edges": [{"id": "e1", "tail": "p", "head": "q", "length": 1.0, "cells": 4},
                  {"id": "e2", "tail": "q", "head": "r", "length": 0.75, "cells": 3}],
        "h": "-1",
    })
    u = GridFunction(spec.grid, np.linspace(0.0, 1.0, spec.grid.ndof))
    path = tmp_path / "u.csv"
    path.write_text("\n".join(damage(_csv_lines(spec, u))) + "\n")
    with pytest.raises(ValueError) as info:
        _read_solution_csv(str(path), spec)
    assert str(info.value) == message.format(p=path)


def test_csv_line_numbers_count_across_blocks_of_rows(tmp_path):
    # 20000 rows, three blank lines among the first, a non-finite value near
    # the end: the reported line counts every line of the file, blank ones too
    spec = star_spec(1, 20000)
    lines = _csv_lines(spec, GridFunction(spec.grid, np.zeros(spec.grid.ndof)))
    lines = lines[:5] + [""] * 3 + _edit(lines, 15001, 2, "-inf")[5:]
    path = tmp_path / "u.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r", line 15005: non-finite value in row \['e0', '"):
        _read_solution_csv(str(path), spec)


def test_csv_with_no_rows_names_the_missing_edges(tmp_path):
    spec = star_spec(2, 4)
    path = tmp_path / "u.csv"
    path.write_text("edge_id,s,u\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r": no samples for edges \['e0', 'e1'\]$"):
            _read_solution_csv(str(path), spec)


def _reference_write(path, spec, u):
    # the writer as it was when it formatted one id field per row
    grid, edges = spec.grid, spec.graph.edges
    nodes = grid.edge_nodes(sorted(range(len(edges)), key=lambda j: edges[j].id))
    ids = ['"%s"' % i.replace('"', '""') if set(i) & set(',"\r\n') else i
           for i in (str(e.id) for e in edges)]
    fields = [None] * (3 * nodes.size)
    fields[0::3] = np.array(ids, dtype=object)[grid.node_edge[nodes]].tolist()
    fields[1::3] = grid.node_s[nodes].tolist()
    fields[2::3] = u.values[grid.node_dof[nodes]].tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("edge_id,s,u\n" + "%s,%.17g,%.17g\n" * nodes.size % tuple(fields))


def path_spec(ids, cells):
    n = len(ids)
    return parse_problem({
        "vertices": [f"v{k}" for k in range(n + 1)],
        "edges": [{"id": i, "tail": f"v{k}", "head": f"v{k + 1}", "length": 0.5 + k,
                   "cells": cells} for k, i in enumerate(ids)],
        "h": "-1",
    })


csv_ids = st.text(st.sampled_from(list('%s,"\r\n #é中\u2028'))
                  | st.characters(blacklist_categories=("Cs",)), max_size=6)


@settings(max_examples=60, deadline=None)
@given(ids=st.lists(csv_ids, min_size=1, max_size=4, unique=True),
       cells=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_csv_writer_bytes_match_the_reference_and_read_back(ids, cells, seed):
    spec = path_spec(ids, cells)
    u = wild_values(spec, seed)
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = os.path.join(tmp, "new.csv"), os.path.join(tmp, "ref.csv")
        _write_solution_csv(new, spec, u)
        _reference_write(ref, spec, u)
        with open(new, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read()
        # a written file never needs the csv module's second reading; the
        # first read takes the u just written, the second parses the file
        with mock.patch.object(cli, "_scan_csv", side_effect=AssertionError("re-scanned")):
            for _ in range(2):
                back = _read_solution_csv(new, spec)
                assert np.array_equal(back.values.view(np.int64), u.values.view(np.int64))


def _underscored(text):
    for k in range(len(text) - 1):
        if text[k].isdigit() and text[k + 1].isdigit():
            return text[:k + 1] + "_" + text[k + 1:]
    return text + "_0" if text[-1:].isdigit() else text


NUMBER_EDITS = [_underscored, lambda t: "nan", lambda t: "1e400", lambda t: "-inf",
                lambda t: f" {t} ", lambda t: f'"{t}"', lambda t: "abc", lambda t: ""]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_csv_reader_matches_the_csv_module_reading(data):
    spec = parse_problem({
        "vertices": ["a", "b", "c"],
        "edges": [{"id": 'x,"y"', "tail": "a", "head": "b", "length": 1.0, "cells": 4},
                  {"id": "z", "tail": "b", "head": "c", "length": 0.5, "cells": 5}],
        "h": "-1",
    })
    u = wild_values(spec, data.draw(st.integers(0, 2**32 - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.csv")
        _write_solution_csv(path, spec, u)
        with open(path, newline="") as fh:
            rows = [[r[0] if r[0] == "z" else '"x,""y"""', r[1], r[2]]
                    for r in list(csv.reader(fh))[1:]]
        for _ in range(data.draw(st.integers(0, 3))):
            k, col = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.sampled_from([1, 2]))
            rows[k][col] = data.draw(st.sampled_from(NUMBER_EDITS))(rows[k][col])
        if data.draw(st.booleans()):
            rows = [['"z"' if r[0] == "z" else r[0]] + r[1:] for r in rows]
        lines = ["edge_id,s,u"] + [",".join(r) for r in rows]
        for _ in range(data.draw(st.integers(0, 3))):
            lines.insert(data.draw(st.integers(1, len(lines))),
                         data.draw(st.sampled_from(["", " ", "\t"])))
        end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        with open(path, "w", newline="") as fh:
            fh.write(end.join(lines) + end)

        def outcome():
            try:
                return _read_solution_csv(path, spec).values.view(np.int64).tolist()
            except ValueError as exc:
                return str(exc)

        fast = outcome()
        with mock.patch.object(np, "loadtxt", side_effect=ValueError):
            assert outcome() == fast


def test_verify_locates_worst_residual_on_a_star(tmp_path, capsys):
    spec = star_spec(5, 8, seed=4)
    prob = tmp_path / "star.json"
    prob.write_text(json.dumps({
        "vertices": list(spec.graph.vertex_ids),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head, "length": e.length,
                   "cells": 8} for e in spec.graph.edges],
        "h": "-1", "c": -1.0,
    }))
    grid = spec.grid

    def worst_at(dof):
        u = np.zeros(grid.ndof)
        u[dof] = 10.0  # e^u outweighs every stiffness term
        path = tmp_path / "u.csv"
        path.write_text("\n".join(_csv_lines(spec, GridFunction(grid, u))) + "\n")
        assert main(["verify", str(prob), str(path)]) == 4
        return json.loads(capsys.readouterr().out)["worst_residual"]["location"]

    # an interior node: its edge and k h
    assert worst_at(grid.edge_dofs["e2"][3]) == {"edge_id": "e2", "s": 3 * grid.spacing["e2"]}
    # the hub: the tail of every edge, located on the first
    assert worst_at(grid.vertex_dof("o")) == {"edge_id": "e0", "s": 0.0}
    # a leaf: the head of its only edge, at n h
    assert worst_at(grid.vertex_dof("v3")) == {"edge_id": "e3", "s": 8 * grid.spacing["e3"]}


def test_verify_locates_a_head_vertex_at_the_edge_length(tmp_path, capsys):
    # 10 * (0.9 / 10) rounds to 0.8999999999999999: the report gives the s
    # of the solution CSV, which is the edge length
    prob = write_problem(tmp_path, edges=[
        {"id": "e1", "tail": "p", "head": "q", "length": 0.9, "cells": 10}], c=-1)
    spec = parse_problem(json.loads(prob.read_text()))
    u = np.zeros(spec.grid.ndof)
    u[spec.grid.vertex_dof("q")] = 10.0
    path = tmp_path / "u.csv"
    lines = _csv_lines(spec, GridFunction(spec.grid, u))
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(prob), str(path)]) == 4
    location = json.loads(capsys.readouterr().out)["worst_residual"]["location"]
    assert location == {"edge_id": "e1", "s": 0.9}
    assert float(lines[-1].split(",")[1]) == 0.9  # the head's row of the CSV


def test_consecutive_main_calls_share_no_options(tmp_path, capsys):
    # main builds its parser once per process; options of one call must not
    # leak into the next
    from kwnet import cli

    prob = write_problem(tmp_path)
    out = tmp_path / "other"
    assert main(["solve", str(prob), "--c", "-3", "--cells", "16", "--tol", "1e-6",
                 "--out", str(out)]) == 0
    report = json.loads((tmp_path / "other.report").read_text())
    assert (report["c"], report["cells"]["e1"], report["tolerance"]) == (-3.0, 16, 1e-6)

    assert main(["solve", str(prob)]) == 0
    report = json.loads((tmp_path / "prob.report").read_text())
    assert (report["c"], report["cells"]["e1"], report["tolerance"]) == (-2.0, 64, 1e-8)

    assert main(["threshold", str(prob), "--cells", "16"]) == 0
    capsys.readouterr()
    assert main(["verify", str(prob), str(tmp_path / "prob.solution.csv")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["c"], payload["tolerance"]) == (-2.0, 1e-4)
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("argv, named", [
    (["solve", "{prob}", "--c", "nan"], "--c must be finite"),
    (["solve", "{prob}", "--c", "inf"], "--c must be finite"),
    (["solve", "{prob}", "--tol", "-1"], "--tol must be positive and finite"),
    (["solve", "{prob}", "--tol", "nan"], "--tol must be positive and finite"),
    (["solve", "{prob}", "--tol", "0"], "--tol must be positive and finite"),
    (["verify", "{prob}", "{csv}", "--c", "inf"], "--c must be finite"),
    (["verify", "{prob}", "{csv}", "--c=-inf"], "--c must be finite"),
    (["verify", "{prob}", "{csv}", "--tol", "nan"], "--tol must be positive and finite"),
    (["verify", "{prob}", "{csv}", "--tol", "inf"], "--tol must be positive and finite"),
    (["threshold", "{prob}", "--bracket-tol", "-1"], "--bracket-tol must be positive and finite"),
    (["threshold", "{prob}", "--bracket-tol", "nan"], "--bracket-tol must be positive and finite"),
])
def test_unusable_option_values_exit_1(tmp_path, capsys, argv, named):
    prob = write_problem(tmp_path)
    assert main(["solve", str(prob)]) == 0
    csv_path = tmp_path / "prob.solution.csv"
    before = csv_path.read_bytes()
    capsys.readouterr()
    assert main([a.format(prob=prob, csv=csv_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + named) and captured.err.count("\n") == 1
    assert captured.out == "" and csv_path.read_bytes() == before


@pytest.mark.parametrize("argv", [
    ["solve", "{prob}", "--c", "abc"],
    ["solve"],
    ["verify", "{prob}"],
    ["threshold", "{prob}", "--bracket-tol", "wide"],
    ["solve", "{prob}", "--no-such-option"],
])
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    # 2 means "not solvable" in this CLI, so argparse does not get it
    prob = write_problem(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([a.format(prob=prob) for a in argv])
    assert info.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_threshold_json_carries_the_work_counts(tmp_path):
    from kwnet import estimate_threshold, load_problem

    prob = write_problem(tmp_path, h="cos(pi*s) - 0.1")
    assert main(["threshold", str(prob), "--cells", "48"]) == 0
    payload = json.loads((tmp_path / "prob.threshold").read_text())
    details = estimate_threshold(load_problem(str(prob), cells_override=48).h).details
    counts = {key: details[key] for key in ("factorizations", "pivoted_interiors")}
    assert {key: payload[key] for key in counts} == counts
    assert counts["factorizations"] > 0


def test_threshold_with_a_too_fine_bracket_tol_exits_3(tmp_path, capsys):
    # the problem of CI's console-script step
    prob = write_problem(tmp_path, h="cos(pi*s) - 0.5")
    for width in ("1e-12", "1e-11"):
        assert main(["threshold", str(prob), "--cells", "32", "--bracket-tol", width]) == 3
        assert (f"bracket_tol = {width} is finer than the walk resolves the fold"
                in capsys.readouterr().err)
