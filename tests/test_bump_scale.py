"""The scaled bump that starts the c >= 0 solvers: solvers._bump is the
positive part of h on the edge where h is largest, solvers._bump_scale finds
l with int h e^(l wb) = target by Newton along the bump from its closed-form
upper end, and importing kwnet loads no scipy.optimize."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from kwnet import GridFunction, apply_residual, classify, solve
from kwnet.cli import main
from kwnet.errors import FeasibilityFailure
from kwnet.solvers import (_along_bump, _bump, _bump_scale, _Workspace, solve_positive,
                           solve_zero)
from helpers import make_path3, make_single, make_star3, make_theta, make_triangle

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = [make_single, make_path3, make_star3, make_triangle, make_theta]


@st.composite
def signed_h(draw, min_cells=2):
    """A random h on one of the small graphs, positive or not, with the
    interiors of some edges pushed to h <= 0 so that h > 0 can sit on
    vertices only."""
    grid = draw(st.sampled_from(GRAPHS))(cells=draw(st.integers(min_cells, 40)))
    unit = st.floats(-1.0, 1.0)
    values = np.array(draw(st.lists(unit, min_size=grid.ndof, max_size=grid.ndof)))
    values -= draw(st.floats(0.0, 0.9))
    for dofs in grid.edge_dofs.values():
        if draw(st.booleans()):
            values[dofs[1:-1]] = -np.abs(values[dofs[1:-1]])
    return GridFunction(grid, values)


@st.composite
def bump_problems(draw):
    """(workspace, bump, c): a random sign-changing h with int h < 0 on a
    small graph, the bump _bump puts on it and a c > 0."""
    h = draw(signed_h(min_cells=4))
    ws = _Workspace(h)
    assume(float(np.max(h.values)) > 0.0 and float(ws.w @ h.values) < 0.0)
    wb = _bump(h.grid, h).values
    # wb = 1 where h is largest on the bump, so h >= 1e-6 there keeps l and
    # the start l_hi of _bump_scale below about 30, far under its cap of 700
    assume(float(np.max(h.values[wb > 0.0])) >= 1e-6)
    return ws, wb, draw(st.floats(0.01, 5.0))


@settings(max_examples=300, deadline=None)
@given(h=signed_h())
def test_bump_is_the_positive_part_of_h_on_its_best_edge(h):
    # the best edge is the first, in edge order, on whose nodes h is largest
    grid = h.grid
    tops = [float(np.max(h.values[dofs])) for dofs in grid.edge_dofs.values()]
    best = list(grid.edge_dofs)[tops.index(max(tops))]
    interior = grid.edge_dofs[best][1:-1]
    positive = interior[h.values[interior] > 0.0]
    if max(tops) <= 0.0:
        with pytest.raises(FeasibilityFailure):
            _bump(grid, h)
        return
    wb = _bump(grid, h).values
    if positive.size == 0:
        # h > 0 only on vertices: the hat of the DOF where h is largest
        assert np.flatnonzero(wb).tolist() == [int(np.argmax(h.values))]
        assert float(np.max(wb)) == 1.0 and h.values[np.argmax(wb)] == max(tops)
        return
    assert np.flatnonzero(wb > 0.0).tolist() == sorted(positive.tolist())
    rest = np.ones(grid.ndof, dtype=bool)
    rest[positive] = False
    assert np.all(wb[rest] == 0.0)  # every vertex and every other edge
    assert float(np.max(wb)) == 1.0
    assert np.array_equal(wb[positive], h.values[positive] / np.max(h.values[positive]))


def test_a_vertex_maximum_leaves_the_bump_at_one():
    # h = 1 on the tail vertex, 6.5e-4 on the first interior node and < 0
    # beyond: wb is divided by the interior's largest h, not the vertex's,
    # so l stays near 11 instead of passing the 700 where Newton starts
    grid = make_single(cells=40)
    dofs = grid.edge_dofs["e1"]
    values = np.empty(grid.ndof)
    values[dofs] = 2.0 * np.exp(-27.7 * grid.edge_coords("e1")) - 1.0
    h = GridFunction(grid, values)
    ws = _Workspace(h)
    assert values[dofs[0]] == 1.0 and 0.0 < values[dofs[1]] < 1e-3
    assert np.all(values[dofs[2:]] < 0.0) and ws.w @ values < 0.0
    wb = _bump(grid, h).values
    assert np.flatnonzero(wb).tolist() == [dofs[1]] and wb[dofs[1]] == 1.0
    for target in (0.0, 0.5 * ws.total):
        assert 10.0 < _bump_scale(ws, wb, target) < 12.0
    assert solve_zero(h).report.status == "Converged"
    assert solve_positive(h, 0.5).report.status == "Converged"


def test_h_positive_only_at_a_vertex_solves_from_its_hat(tmp_path):
    # on a 4-cell unit edge cos(pi s) - 0.9 is positive only at the tail
    # vertex: kwnet solves and verifies c = 0 and c = 0.5 from that hat
    prob = tmp_path / "vertex.json"
    prob.write_text(json.dumps({
        "vertices": ["p", "q"],
        "edges": [{"id": "e1", "tail": "p", "head": "q", "length": 1.0, "cells": 4}],
        "h": "cos(pi*s) - 0.9", "c": 0}))
    for c in ("0", "0.5"):
        assert main(["solve", str(prob), "--c", c]) == 0
        assert main(["verify", str(prob), str(tmp_path / "vertex.solution.csv"), "--c", c]) == 0


@pytest.mark.parametrize("cells", [4, 16, 96])
@pytest.mark.parametrize("hub", [5.0, 40.0])
def test_a_star_positive_only_at_its_hub_solves_from_the_hub_hat(cells, hub):
    grid = make_star3(cells=cells, lengths=(1.0, 1.0, 0.7))
    values = -np.ones(grid.ndof)
    values[0] = hub  # the hub o, vertex 0
    h = GridFunction(grid, values)
    wb = _bump(grid, h).values
    assert np.flatnonzero(wb).tolist() == [0] and wb[0] == 1.0
    for c in (0.0, 0.5, 2.0):
        if not classify(h, c).ok:  # int h >= 0: c = 0 has no solution
            continue
        sol = solve(h, c)
        assert sol.report.status == "Converged"
        assert apply_residual(sol.u, h, c).weak_residual_norm <= 1e-8 * (1.0 + c)


def doubling(ws, wb, target):
    """The scan l -> int h e^(l wb) - target and the end hi of its bracket
    found by doubling l from 1: Brent's reference bracket, and a start
    farther above the root than _bump_scale's."""

    def scan(ell):
        return ws.mass(ell * wb) - target

    hi = 1.0
    while scan(hi) <= 0.0:
        hi *= 2.0
    return scan, hi


@settings(max_examples=150, deadline=None)
@given(problem=bump_problems())
def test_newton_along_the_bump_finds_brents_root_from_above(problem):
    ws, wb, c = problem
    peak = int(np.argmax(wb))  # wb[peak] = 1
    for target in (0.0, c * ws.total):
        scan, hi = doubling(ws, wb, target)
        root = brentq(scan, 0.0, hi, xtol=1e-13, rtol=8.9e-16)
        # the iterates, read off the exponents Newton takes: l wb peaks at l
        seen = []
        exp = np.exp
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "exp", lambda x: seen.append(x[peak] / wb[peak]) or exp(x))
            ell = _bump_scale(ws, wb, target)
        assert abs(ell - root) <= 1e-13 * (1.0 + ell)
        ev = np.exp(ell * wb)
        scale = float(ws.w @ (np.abs(ws.hv) * ev))
        # _along_bump's stop: max|x| = l, as max wb = 1
        assert abs(scan(ell)) <= max(1e-14, 2.0 * np.finfo(float).eps * ell) * scale
        # Newton starts at the closed-form upper end and never passes the root
        ih = float(ws.w @ ws.hv)
        assert seen[0] == math.log1p((target - ih) / (ws.w[peak] * ws.hv[peak]))
        assert min(seen) >= root - 1e-13 * (1.0 + ell)
        # from the doubling's farther end it lands on the same root
        assert abs(_along_bump(ws, 0.0, wb, target, alpha=hi)[0] - ell) <= 1e-13 * (1.0 + ell)


def single_node_scales(hj):
    """(l, its closed form) for h = hj at interior node 5, 13 or 20 of a
    40-cell edge and -1 elsewhere, at four targets: wb is that node's hat, so
    int h e^(l wb) = int h + w_j h_j (e^l - 1) and
    l = log1p((target - int h) / (w_j h_j)), the start of Newton."""
    grid = make_single(cells=40)
    for node in (5, 13, 20):
        values = -np.ones(grid.ndof)
        j = grid.edge_dofs["e1"][node]
        values[j] = hj
        ws = _Workspace(GridFunction(grid, values))
        wb = _bump(grid, ws.h).values
        assert np.flatnonzero(wb).tolist() == [j] and wb[j] == 1.0
        ih = float(ws.w @ values)
        for target in (0.0, 0.5 * ws.total, 3.0 * ws.total, 1e11):
            yield _bump_scale(ws, wb, target), math.log1p((target - ih) / (ws.w[j] * hj))


def test_a_single_node_bump_has_the_closed_form_scale():
    for hj in (1.0, 0.3):
        for ell, closed in single_node_scales(hj):
            assert ell == closed


@pytest.mark.parametrize("tiny", [1e-200, 1e-280])
def test_a_tiny_positive_part_is_scaled_past_the_roundoff_of_e_x(tiny):
    # l = 464-490 (648-674), where one ulp of l moves e^l by eps l, more
    # than a 1e-14 mass test allows
    for ell, closed in single_node_scales(tiny):
        assert ell == closed and ell > 400.0


def test_import_leaves_scipy_optimize_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, kwnet, kwnet.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
