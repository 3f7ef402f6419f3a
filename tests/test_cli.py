"""End-to-end CLI runs, in process via main(argv)."""

import csv
import json
import math

import numpy as np
import pytest

from kwnet.cli import main


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


def test_solve_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    noc = write_problem(tmp_path, name="noc.json")
    data = json.loads(noc.read_text())
    del data["c"]
    noc.write_text(json.dumps(data))
    assert main(["solve", str(noc)]) == 1
    assert "no c" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["cos(pi*s) - 1/0", "2^10000", "(-1)^0.5"])
def test_solve_reports_arithmetic_errors_in_h(tmp_path, capsys, bad):
    prob = write_problem(tmp_path, h=bad)
    assert main(["solve", str(prob)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expression" in err


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
    assert (tmp_path / "bad.verify").exists()


def test_verify_rejects_cells_mismatch(tmp_path, capsys):
    prob = write_problem(tmp_path)
    assert main(["solve", str(prob)]) == 0
    capsys.readouterr()
    code = main(["verify", str(prob), str(tmp_path / "prob.solution.csv"),
                 "--cells", "32"])
    assert code == 1
    assert "cells mismatch" in capsys.readouterr().err


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
