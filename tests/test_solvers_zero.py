"""c = 0: constrained minimization with the multiplier shift."""

import math

import numpy as np
import pytest

from kwnet import (
    GridFunction,
    apply_residual,
    classify,
    constant,
    exp_weighted_energy,
    integrate,
    sample_function,
    solve,
    solve_zero,
)
from kwnet import solvers
from kwnet.errors import NotSolvable
from kwnet.problemfile import parse_problem
from helpers import make_single, make_star3, random_h_sign_changing


def cos_instance(cells=128):
    grid = make_single(cells=cells)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) - 0.1)
    return grid, h


def test_cos_instance_converges():
    grid, h = cos_instance()
    sol = solve_zero(h)
    rep = sol.report
    assert rep.status == "Converged"
    assert rep.final_residual <= 1e-8
    assert apply_residual(sol.u, h, 0.0).weak_residual_norm <= 1e-8
    assert rep.multiplier > 0.0


def test_multiplier_scales_the_profile():
    # the solution is v + ln(lambda) with v the constrained minimizer; the
    # reported multiplier must match exp of the mean shift that was applied
    grid, h = cos_instance()
    sol = solve_zero(h)
    lam = sol.report.multiplier
    v_mean = integrate(sol.u) / grid.total_length - math.log(lam)
    assert abs(v_mean) < 1e-9


def test_identities_at_solution():
    grid, h = cos_instance(cells=256)
    sol = solve_zero(h)
    checks = sol.report.identity_checks
    assert checks["mass_defect"] <= 1e-8 * grid.total_length
    assert checks["energy_defect"] <= 1e-5 * abs(integrate(h))
    # direct recomputation agrees with the reported numbers
    mass = integrate(GridFunction(h.grid, h.values * np.exp(sol.u.values)))
    assert abs(mass) == pytest.approx(checks["mass_defect"], abs=1e-12)
    energy = exp_weighted_energy(sol.u)
    assert abs(energy + integrate(h)) == pytest.approx(checks["energy_defect"], abs=1e-12)


def test_star_instance_converges(rng):
    grid = make_star3(cells=64)
    h = random_h_sign_changing(grid, rng, depth=0.25)
    sol = solve_zero(h)
    assert sol.report.final_residual <= 1e-8
    assert sol.report.identity_checks["mass_defect"] <= 1e-8 * grid.total_length


def test_dispatch_routes_to_zero():
    _, h = cos_instance()
    sol = solve(h, 0.0)
    assert sol.report.method.endswith("(zero)")


def test_refuses_one_signed_h():
    grid = make_single(cells=32)
    with pytest.raises(NotSolvable):
        solve_zero(constant(grid, -1.0))
    with pytest.raises(NotSolvable):
        solve_zero(constant(grid, 1.0))


def test_refuses_nonnegative_integral():
    grid = make_single(cells=64)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) + 0.2)
    assert integrate(h) > 0
    assert classify(h, 0.0).reason == "IntegralHNonneg"
    with pytest.raises(NotSolvable):
        solve_zero(h)


def test_fine_mesh_reported_residual_meets_tol():
    # at 3072 cells the residual sits at its roundoff floor, a few 1e-9;
    # forming u = v + ln(lambda) must not push it back above tol
    grid = make_single(cells=3072)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) - 0.1)
    sol = solve_zero(h)
    assert sol.report.final_residual <= 1e-8
    assert apply_residual(sol.u, h, 0.0).weak_residual_norm <= 1e-8


def test_pseudo_root_finish_is_refused(monkeypatch):
    # from a constant seed Newton drifts to the flat pseudo-root: mean u near
    # -16, residual below tol, but int h e^v off by 16 %.  A finish that
    # ends there must be refused on the constraint
    grid, h = cos_instance(cells=256)
    newton = solvers._damped_newton
    flat = newton(solvers._Workspace(h), 0.0, np.zeros(grid.ndof))
    assert flat is not None and integrate(GridFunction(grid, flat)) / grid.total_length < -10.0
    calls = []

    def first_finish_flat(ws, c, seed):
        calls.append(ws.ctol(c))
        if len(calls) == 1:
            return flat.copy()
        return newton(ws, c, seed)

    monkeypatch.setattr(solvers, "_damped_newton", first_finish_flat)
    sol = solve_zero(h)
    details = sol.report.to_dict()["details"]
    assert details["rejected_tails"][0]["reason"] == "constraint"
    assert details["tail_attempts"] == len(calls)
    assert sol.report.final_residual <= 1e-8
    monkeypatch.undo()
    assert sol.report.multiplier == pytest.approx(solve_zero(h).report.multiplier, rel=1e-9)


def _theta_instance(cells):
    # Newton from the scaled bump ends on a saddle of the energy here
    edges = [("e1", 1.0, "1.26926294371", "-0.163068643549"),
             ("e2", 1.3, "1.1224603136", "0.17363609731"),
             ("e3", 0.9, "0.906261605572", "-0.152046716463")]
    return parse_problem({
        "vertices": ["a", "b"],
        "edges": [{"id": eid, "tail": "a", "head": "b", "length": length, "cells": cells}
                  for eid, length, _, _ in edges],
        "h": {eid: f"-0.594934285296 + {a}*sin(pi*s/{length})^4 + {b}*sin(2*pi*s/{length})"
              for eid, length, a, b in edges},
    }).h


def test_value_not_above_pure_descent(rng, monkeypatch):
    # a Newton finish may only end where the descent would: the reported
    # energy is never above that of the same descent with every finish failed
    problems = [cos_instance()[1], cos_instance(cells=256)[1], _theta_instance(cells=48)]
    grid = make_star3(cells=64)
    problems += [random_h_sign_changing(grid, rng, depth=0.25) for _ in range(3)]
    for h in problems:
        sol = solve_zero(h)
        with monkeypatch.context() as m:
            m.setattr(solvers, "_damped_newton", lambda *args, **kwargs: None)
            pure = solve_zero(h, tol=1e-6)
        bound = pure.report.functional_value + 1e-12 * (1 + abs(pure.report.functional_value))
        assert sol.report.functional_value <= bound
