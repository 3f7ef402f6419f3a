"""c > 0: coercive minimization; solutions carry multiplier 1."""

import math

import numpy as np
import pytest

from kwnet import apply_residual, constant, integrate, sample_function, solve, solve_positive
from kwnet.errors import NotSolvable
from kwnet.problemfile import parse_problem
from helpers import make_path3, make_single, make_theta, random_h_positive_somewhere


def test_constant_solution_exact():
    grid = make_single(cells=64)
    sol = solve_positive(constant(grid, 2.0), 1.0)
    assert np.max(np.abs(sol.u.values - math.log(0.5))) <= 1e-12


def test_sign_changing_h_converges():
    grid = make_single(cells=128)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) + 0.05)
    c = 0.8
    sol = solve_positive(h, c)
    assert sol.report.final_residual <= 1e-8 * (1 + c)
    assert sol.report.multiplier == 1.0
    mass = integrate(h.with_values(h.values * np.exp(sol.u.values)))
    assert mass == pytest.approx(c * grid.total_length, abs=1e-7)


def test_negative_integral_still_fine():
    # c > 0 only needs max h > 0; a strongly negative integral is allowed
    grid = make_path3(cells=48)
    # one global profile expressed in each edge's local coordinate: a bump at
    # the path's first endpoint and -1 elsewhere
    offsets = {"e1": 0.0, "e2": 1.0, "e3": 1.6}
    h = sample_function(grid, {
        eid: (lambda s, o=o: -1.0 + 2.2 * math.exp(-14.0 * (s + o) ** 2))
        for eid, o in offsets.items()
    })
    assert integrate(h) < 0 and float(np.max(h.values)) > 0
    sol = solve_positive(h, 1.3)
    assert apply_residual(sol.u, h, 1.3).weak_residual_norm <= 1e-8 * 2.3


def test_random_instances(rng):
    grid = make_theta(cells=24)
    for _ in range(3):
        h = random_h_positive_somewhere(grid, rng)
        c = float(10 ** rng.uniform(-1.0, 0.5))
        sol = solve_positive(h, c, tol=1e-9)
        assert sol.report.final_residual <= 1e-9 * (1 + c)


def test_refuses_nonpositive_h():
    grid = make_single(cells=32)
    with pytest.raises(NotSolvable):
        solve_positive(constant(grid, -0.5), 1.0)
    with pytest.raises(NotSolvable):
        solve(constant(grid, 0.0), 2.0)


def test_requires_positive_c():
    grid = make_single(cells=16)
    with pytest.raises(ValueError):
        solve_positive(constant(grid, 1.0), -1.0)


def test_stalled_descent_finishes_with_newton():
    # on this theta graph the energy descent stops moving near a residual of
    # 1e-4, where the energy no longer resolves a decrease; the Newton tail
    # has to finish the solve from there
    edges = [("e1", 1.0, "1.15190661161", "-0.0352299244208"),
             ("e2", 1.3, "1.37495240034", "-0.151154364664"),
             ("e3", 0.9, "0.937393857326", "0.140325571416")]
    spec = parse_problem({
        "vertices": ["a", "b"],
        "edges": [{"id": eid, "tail": "a", "head": "b", "length": length, "cells": 384}
                  for eid, length, _, _ in edges],
        "h": {eid: f"-0.705609976281 + {a}*sin(pi*s/{length})^4 + {b}*sin(2*pi*s/{length})"
              for eid, length, a, b in edges},
    })
    sol = solve_positive(spec.h, 0.3)
    assert sol.report.final_residual <= 1e-8 * 1.3
    assert sol.report.iterations < 1000
