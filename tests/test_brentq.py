"""solvers._brentq: Brent's method bitwise as scipy.optimize.brentq, and no
scipy.optimize on import."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

from kwnet.solvers import _brentq

ROOT = Path(__file__).resolve().parent.parent
KWNET_TOL = (1e-13, 8.9e-16)  # the tolerances of solvers._bump_scale


def both(f, a, b, xtol, rtol, maxiter=100):
    """(root or exception type) of scipy's brentq and of _brentq."""
    out = []
    for root in (brentq, _brentq):
        try:
            out.append(root(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter))
        except (ValueError, RuntimeError) as exc:
            out.append(type(exc))
    return out


tolerances = st.one_of(
    st.just(KWNET_TOL),
    st.tuples(st.floats(1e-15, 1e-2), st.floats(4 * np.finfo(float).eps, 1e-6)),
)


@st.composite
def bump_scans(draw):
    """The scan of _bump_scale on a random grid: l -> int h e^(l wb) - target,
    with the bracket [0, hi] that its doubling finds."""
    n = draw(st.integers(3, 40))
    unit = st.floats(0.0, 1.0)
    w = 0.01 + np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    hv = 4.0 * np.array(draw(st.lists(unit, min_size=n, max_size=n))) - 2.5
    wb = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    target = float(w @ hv) + draw(st.floats(1e-3, 3.0))

    def scan(ell):
        # int h e^(l wb) as _Workspace.mass forms it, e^x saturating at e^700
        with np.errstate(over="ignore"):
            return float(w @ (hv * np.exp(np.minimum(ell * wb, 700.0)))) - target

    hi = 1.0
    while scan(hi) <= 0.0 and hi < 64.0:
        hi *= 2.0
    assume(scan(hi) > 0.0)
    return scan, 0.0, hi


@st.composite
def smooth_brackets(draw):
    """f(x) = a (x - r) + b sin(k x) + d (x - r)^3 on a bracket around r:
    O(1) values, several roots possible, sign change at the ends."""
    a, b, d = (draw(st.floats(-2.0, 2.0)) for _ in range(3))
    k = draw(st.floats(0.1, 20.0))
    r = draw(st.floats(-3.0, 3.0))
    lo, hi = r - draw(st.floats(0.01, 3.0)), r + draw(st.floats(0.01, 3.0))

    def f(x):
        return a * (x - r) + b * math.sin(k * x) + d * (x - r) ** 3

    assume((f(lo) < 0.0) != (f(hi) < 0.0) and f(lo) != 0.0 and f(hi) != 0.0)
    return f, lo, hi


@settings(max_examples=300, deadline=None)
@given(problem=st.one_of(bump_scans(), smooth_brackets()), tol=tolerances,
       maxiter=st.sampled_from([100, 100, 8, 3]))
def test_brentq_is_scipys_bitwise(problem, tol, maxiter):
    f, a, b = problem
    scipys, ours = both(f, a, b, *tol, maxiter=maxiter)
    if isinstance(scipys, float):
        assert isinstance(ours, float) and ours.hex() == scipys.hex()
    else:
        assert ours is scipys


def test_brentq_on_a_known_root():
    scipys, ours = both(lambda x: x * x - 2.0, 0.0, 2.0, *KWNET_TOL)
    assert ours == scipys and abs(ours - math.sqrt(2.0)) <= 1e-13 + 8.9e-16 * ours


def test_brentq_needs_a_sign_change():
    for lo, hi in [(0.0, 1.0), (-1.0, 0.5)]:
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, lo, hi, *KWNET_TOL)
    # a root at an end is returned as it is
    assert _brentq(lambda x: x - 1.0, 1.0, 3.0, *KWNET_TOL) == 1.0
    assert _brentq(lambda x: x - 3.0, 1.0, 3.0, *KWNET_TOL) == 3.0


def test_brentq_raises_on_nan_and_on_too_few_steps():
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan if x > 0.2 else x - 0.5, 0.0, 1.0, *KWNET_TOL)
    with pytest.raises(RuntimeError, match="did not converge"):
        _brentq(math.sin, 2.0, 4.0, *KWNET_TOL, maxiter=2)


def test_import_leaves_scipy_optimize_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, kwnet, kwnet.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
