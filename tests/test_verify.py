"""Verification layer: identities, gradient checks, manufactured h, oracle."""

import math

import numpy as np
import pytest

from kwnet import (
    GridFunction,
    apply_residual,
    build_graph,
    build_grid,
    constant,
    fd_gradient_check,
    identity_report,
    integrate,
    manufacture,
    oracle_newton,
    sample_function,
    solve_zero,
)
from kwnet import verify
from kwnet.errors import Diverged, GridMismatch, KirchhoffDefect, ResolutionTooCoarse
from helpers import make_single, make_star3, make_triangle, smooth_random


def test_identity_report_constant_case():
    grid = make_single(cells=32)
    u = constant(grid, math.log(2.0))
    h = constant(grid, -1.0)
    rep = identity_report(u, h, -2.0)
    assert rep.mass_value == pytest.approx(-2.0 * grid.total_length, rel=1e-13)
    assert rep.mass_defect <= 1e-12
    assert rep.energy_value is None and rep.energy_defect is None
    assert rep.discrete_energy_value is None and rep.discrete_energy_defect is None


def test_identity_report_zero_case():
    grid = make_single(cells=256)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) - 0.1)
    sol = solve_zero(h)
    rep = identity_report(sol.u, h, 0.0)
    assert rep.energy_target == pytest.approx(-integrate(h))
    assert rep.energy_defect <= 1e-5 * abs(integrate(h))
    assert rep.mass_defect <= 1e-9


@pytest.mark.parametrize("n_edges", [100, 1000])
def test_discrete_energy_identity_on_large_stars(n_edges):
    # the scheme meets its own form of the c = 0 identity to roundoff, where
    # the midpoint form carries the O(h^2) discretization error
    vs = ["hub"] + [f"v{i}" for i in range(n_edges)]
    es = [(f"e{i}", "hub", f"v{i}", 0.5 + (i % 7) / 7.0) for i in range(n_edges)]
    grid = build_grid(build_graph(vs, es), 32)
    h = sample_function(grid, {e[0]: (lambda s, L=e[3]: np.cos(np.pi * s / L) - 0.1)
                               for e in es})
    rep = identity_report(solve_zero(h).u, h, 0.0)
    ih = abs(integrate(h))
    assert rep.discrete_energy_defect <= 1e-10 * ih
    assert rep.discrete_energy_defect == abs(rep.discrete_energy_value - rep.energy_target)
    assert rep.energy_defect > 1e3 * rep.discrete_energy_defect


def test_identity_report_grid_mismatch():
    u = constant(make_single(cells=8), 0.0)
    h = constant(make_single(cells=16), -1.0)
    with pytest.raises(GridMismatch):
        identity_report(u, h, 0.0)


@pytest.mark.parametrize("functional", ["zero", "positive", "critical"])
def test_fd_gradient_check(functional, rng):
    grid = make_triangle(cells=24)
    u = smooth_random(grid, rng)
    phi = smooth_random(grid, rng)
    h = smooth_random(grid, rng)
    rep = fd_gradient_check(functional, u, phi, 1e-6, h=h, c=0.7)
    assert rep.rel_error <= 1e-6
    assert rep.step == 1e-6


def test_fd_gradient_check_guards(rng):
    grid = make_single(cells=16)
    u = smooth_random(grid, rng)
    with pytest.raises(ValueError):
        fd_gradient_check("bogus", u, u, 1e-6)
    with pytest.raises(ValueError):
        fd_gradient_check("zero", u, u, -1e-6)
    with pytest.raises(ValueError):
        fd_gradient_check("positive", u, u, 1e-6)  # missing c
    with pytest.raises(ValueError):
        fd_gradient_check("critical", u, u, 1e-6, c=1.0)  # missing h
    other = constant(make_single(cells=17), 0.0)
    with pytest.raises(GridMismatch):
        fd_gradient_check("zero", u, other, 1e-6)
    with pytest.raises(GridMismatch, match="^u and h live on different grids$"):
        fd_gradient_check("critical", u, u, 1e-6, h=other, c=1.0)


def test_manufacture_exact_root():
    grid = make_single(cells=64)
    u_star = sample_function(grid, lambda s: math.cos(math.pi * s))
    h = manufacture(u_star, c=1.0)
    assert apply_residual(u_star, h, 1.0).weak_residual_norm <= 1e-12


def test_manufacture_multi_edge():
    # zero slope at every edge end balances every vertex trivially
    grid = make_star3(cells=32)
    lengths = {"e1": 1.0, "e2": 1.5, "e3": 0.7}
    u_star = sample_function(grid, {
        eid: (lambda s, l=l: 0.4 * math.cos(math.pi * s / l))
        for eid, l in lengths.items()
    })
    h = manufacture(u_star, c=-0.3)
    assert apply_residual(u_star, h, -0.3).weak_residual_norm <= 1e-11


def test_manufacture_needs_three_cells():
    grid = make_single(cells=2)
    u = constant(grid, 0.0)
    with pytest.raises(ResolutionTooCoarse):
        manufacture(u, c=0.0)


def test_manufacture_rejects_flux_imbalance():
    # s^2 has slope 0 and 2 at the two ends of the unit edge: no Kirchhoff
    # balance at the degree-one head vertex
    grid = make_single(cells=64)
    u = sample_function(grid, lambda s: s * s)
    with pytest.raises(KirchhoffDefect):
        manufacture(u, c=0.0)
    # an explicit generous tolerance lets it through
    h = manufacture(u, c=0.0, kirchhoff_tol=10.0)
    assert apply_residual(u, h, 0.0).weak_residual_norm <= 1e-12


def test_manufacture_names_the_first_unbalanced_vertex():
    # on the 3-star, a profile sin(k s) with a different k per edge leaves a
    # flux defect at the hub "o" and at every leaf; the hub comes first
    grid = make_star3(cells=40)
    k = {"e1": 1.0, "e2": -2.0, "e3": 0.5}
    u = sample_function(grid, {eid: (lambda s, a=a: math.sin(a * s)) for eid, a in k.items()})
    # the flux balance summed vertex by vertex over the edges in order
    slopes = {}
    for e in grid.graph.edges:
        v, h = u.edge_values(e.id), grid.spacing[e.id]
        slopes[e.id] = ((-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h),
                        (-3.0 * v[-1] + 4.0 * v[-2] - v[-3]) / (2.0 * h))
    net = {vid: sum(t for e in grid.graph.edges for t, end in zip(slopes[e.id], (e.tail, e.head))
                    if end == vid) for vid in grid.graph.vertex_ids}
    assert abs(net["p"]) > 0.1 and abs(net["o"]) > 0.1
    with pytest.raises(KirchhoffDefect) as info:
        manufacture(u, c=0.0, kirchhoff_tol=0.1)
    assert str(info.value) == (f"vertex 'o': net inward slope {net['o']:.4e} exceeds 1.0000e-01; "
                               "the profile is not compatible with the flux balance")


def test_oracle_newton_constant_case():
    grid = make_triangle(cells=16)
    sol = oracle_newton(constant(grid, -1.0), -2.0)
    assert np.max(np.abs(sol.u.values - math.log(2.0))) <= 1e-10
    assert sol.report.method == "newton-oracle"


def test_oracle_newton_diverges_when_unsolvable():
    # c < 0 with h > 0 admits no solution (integrate the equation)
    grid = make_single(cells=32)
    with pytest.raises(Diverged):
        oracle_newton(constant(grid, 1.0), -1.0)


def test_oracle_newton_without_a_usable_direction_diverges(monkeypatch):
    # every factorization fails: the Jacobian's, then each ridge of the tau
    # ladder, 3.3e-9 up by 100x while below 1e14 (12 ridges)
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(verify.spla, "splu", failing)
    with pytest.raises(Diverged, match=r"^no usable Newton direction at iteration 1$"):
        oracle_newton(constant(make_single(cells=16), -1.0), -2.0)
    assert len(calls) == 13


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_newton_diverges_silently_where_h_vanishes_under_an_overflow():
    # h = 0 at node 4 where the seed's e^800 overflows: the Jacobian entry
    # there is 0 * inf, which leaves no usable direction and warns nothing
    grid = make_single(cells=8)
    node = grid.edge_dofs["e1"][4]
    hv, u = np.full(grid.ndof, -1.0), np.zeros(grid.ndof)
    hv[node], u[node] = 0.0, 800.0
    with pytest.raises(Diverged, match="^no usable Newton direction at iteration 1$"):
        oracle_newton(GridFunction(grid, hv), -2.0, GridFunction(grid, u))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_oracle_newton_rejects_a_tol_that_is_not_positive_and_finite(tol):
    # 0, -1 and NaN were blamed on the line search (Diverged at iteration
    # 10), and inf returned u = 0 as converged at residual 1.09
    h = sample_function(make_single(cells=48), lambda s: math.cos(math.pi * s) - 0.1)
    with pytest.raises(ValueError, match="^tol must be positive and finite, got "):
        oracle_newton(h, -0.01, tol=tol)


def test_oracle_newton_names_its_iteration_budget(monkeypatch):
    # u = 0 is not the root ln 2, so the one step allowed ends the loop
    monkeypatch.setattr(verify, "ORACLE_MAX_ITER", 1)
    with pytest.raises(Diverged, match=r"^no convergence in 1 iterations \(residual "):
        oracle_newton(constant(make_single(cells=16), -1.0), -2.0)


def test_oracle_newton_checks_the_iterate_of_its_last_step(monkeypatch):
    # from u = 0 the fifth step lands at residual 1.6e-13: a budget of five
    # converges to ln 2
    monkeypatch.setattr(verify, "ORACLE_MAX_ITER", 5)
    sol = oracle_newton(constant(make_single(cells=16), -1.0), -2.0)
    assert sol.report.final_residual <= 1e-12
    assert np.max(np.abs(sol.u.values - math.log(2.0))) <= 1e-12


@pytest.mark.parametrize("budget", [5, 6])
def test_oracle_newton_reports_the_steps_it_took(monkeypatch, budget):
    # the same five steps at either budget, never more than the budget;
    # a seed at the root takes none
    monkeypatch.setattr(verify, "ORACLE_MAX_ITER", budget)
    h = constant(make_single(cells=16), -1.0)
    assert oracle_newton(h, -2.0).report.iterations == 5
    assert oracle_newton(h, -2.0, seed=constant(h.grid, math.log(2.0))).report.iterations == 0


def test_oracle_newton_custom_seed():
    grid = make_single(cells=48)
    h = constant(grid, -1.0)
    seed = constant(grid, 5.0)
    sol = oracle_newton(h, -2.0, seed=seed, tol=1e-12)
    assert np.max(np.abs(sol.u.values - math.log(2.0))) <= 1e-10
    with pytest.raises(GridMismatch, match="^seed lives on a different grid$"):
        oracle_newton(h, -2.0, seed=constant(make_single(cells=49), 5.0))
