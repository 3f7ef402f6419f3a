"""The scaled bump that starts the c >= 0 solvers: solvers._bump_scale finds
l with int h e^(l wb) = target by Newton along the bump, and importing kwnet
loads no scipy.optimize."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from kwnet import GridFunction
from kwnet.errors import FeasibilityFailure
from kwnet.solvers import _along_bump, _bump, _bump_scale, _Workspace
from helpers import make_path3, make_single, make_star3, make_theta, make_triangle

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = [make_single, make_path3, make_star3, make_triangle, make_theta]


@st.composite
def bump_problems(draw):
    """(workspace, bump, c): a random sign-changing h with int h < 0 on a
    small graph, the bump _bump puts on it and a c > 0."""
    grid = draw(st.sampled_from(GRAPHS))(cells=draw(st.integers(4, 40)))
    unit = st.floats(-1.0, 1.0)
    values = np.array(draw(st.lists(unit, min_size=grid.ndof, max_size=grid.ndof)))
    h = GridFunction(grid, values - draw(st.floats(0.0, 0.9)))
    ws = _Workspace(h)
    assume(float(np.max(h.values)) > 0.0 and float(ws.w @ h.values) < 0.0)
    try:
        wb = _bump(grid, h).values
    except FeasibilityFailure:  # h > 0 only on vertices of the best edge
        assume(False)
    # h >= 1e-6 on the bump keeps l below about 30; from about 45 on, the
    # roundoff of e^(l wb) alone can exceed the 1e-14 mass test
    assume(float(np.max(h.values[wb > 0.0])) >= 1e-6)
    return ws, wb, draw(st.floats(0.01, 5.0))


def doubling(ws, wb, target):
    """The scan l -> int h e^(l wb) - target and the bracket end hi that
    _bump_scale doubles to."""

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
    for target in (0.0, c * ws.total):
        scan, hi = doubling(ws, wb, target)
        ell = _bump_scale(ws, wb, target)
        assert abs(ell - brentq(scan, 0.0, hi, xtol=1e-13, rtol=8.9e-16)) <= 1e-13 * (1.0 + ell)
        ev = np.exp(ell * wb)
        scale = float(ws.w @ (np.abs(ws.hv) * ev))
        assert abs(scan(ell)) <= 1e-14 * scale
        # the iterates, read off the exponents Newton takes: l wb peaks at l
        peak = int(np.argmax(wb))
        seen = []
        exp = np.exp
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "exp", lambda x: seen.append(x[peak] / wb[peak]) or exp(x))
            assert _along_bump(ws, 0.0, wb, target, alpha=hi)[0] == ell
        assert seen[0] == hi
        assert min(seen) >= ell - 1e-13 * (1.0 + ell)


def test_a_single_node_bump_has_the_closed_form_scale():
    # h = 1 at one interior node and -1 elsewhere: wb is that node's hat,
    # so int h e^(l wb) = int h + w_j (e^l - 1) and l = log1p((target - int h) / w_j)
    grid = make_single(cells=40)
    values = -np.ones(grid.ndof)
    j = grid.edge_dofs["e1"][13]
    values[j] = 1.0
    ws = _Workspace(GridFunction(grid, values))
    wb = _bump(grid, ws.h).values
    assert np.flatnonzero(wb).tolist() == [j] and wb[j] == 1.0
    ih = float(ws.w @ values)
    for target in (0.0, 0.5 * ws.total, 3.0 * ws.total, 1e11):
        ell = _bump_scale(ws, wb, target)
        assert ell == pytest.approx(math.log1p((target - ih) / ws.w[j]), rel=1e-14)


def test_import_leaves_scipy_optimize_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, kwnet, kwnet.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
