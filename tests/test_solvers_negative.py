"""c < 0: upper/lower constructions, monotone iteration, continuation."""

import math

import numpy as np
import pytest

from kwnet import (
    GridFunction,
    apply_residual,
    build_lower,
    build_upper,
    build_upper_hneg,
    constant,
    estimate_threshold,
    integrate,
    monotone_iterate,
    sample_function,
    solve,
    solve_negative,
    solve_shifted,
)
from kwnet import solvers
from kwnet.errors import (
    GridMismatch,
    HNotNonpositive,
    IntegralNotNegative,
    MarginTooLarge,
    NoConvergence,
    NotSolvable,
    NoUpperSolutionFound,
    OrderingViolated,
)
from helpers import (
    make_path3,
    make_single,
    make_star3,
    make_theta,
    make_triangle,
    ordered_pair,
    random_h_nonpositive,
    random_h_sign_changing,
)


def cos_h(cells=128):
    grid = make_single(cells=cells)
    return sample_function(grid, lambda s: math.cos(math.pi * s) - 0.1)


def theta_h(cells=48):
    """h = 1/2 on the whole edge e1 (its ends included), dipping to -3/2 in
    the middle of e2 and e3; int h < 0."""
    grid = make_theta(cells=cells)
    return sample_function(grid, {
        "e1": lambda s: 0.5,
        "e2": lambda s: 0.5 - 2.0 * math.sin(math.pi * s / 1.3),
        "e3": lambda s: 0.5 - 2.0 * math.sin(math.pi * s / 0.9),
    })


def reference_monotone(h, c, up, step_tol=1e-13, max_sweeps=5000):
    """Plain monotone iteration from ``up`` with the fixed shift
    max(1, -h) e^(u+), one solve_shifted per sweep, no Newton finish."""
    grid, hv = h.grid, h.values
    k = GridFunction(grid, np.maximum(1.0, -hv) * np.exp(up.values))
    u = up.values
    for _ in range(max_sweeps):
        rhs = GridFunction(grid, c - hv * np.exp(u) - k.values * u)
        unew = solve_shifted(grid, k, rhs).values
        step = float(np.max(np.abs(unew - u)))
        u = unew
        if step <= step_tol:
            return u
    raise AssertionError(f"reference iteration took more than {max_sweeps} sweeps")


# ----------------------------------------------------------------------
# constructions
# ----------------------------------------------------------------------

def test_build_lower_margin_guards():
    grid = make_single(cells=16)
    h = constant(grid, -1.0)
    with pytest.raises(MarginTooLarge):
        build_lower(h, -1.0, margin=1.0)
    with pytest.raises(ValueError):
        build_lower(h, -1.0, margin=0.0)
    low = build_lower(h, -1.0, margin=0.5)
    # constant -A with sup|h| e^{-A} <= -c - margin
    assert math.exp(float(low.values[0])) <= 0.5 + 1e-12


def test_build_lower_is_a_discrete_lower_solution():
    h = cos_h(cells=64)
    c = -0.5
    low = build_lower(h, c, margin=0.2)
    defect = apply_residual(low, h, c).residual / h.grid.weights
    assert float(np.max(defect)) <= 1e-12


def test_build_upper_certificate():
    h = cos_h(cells=256)
    params = build_upper(h)
    assert params.implied_c < 0.0
    assert params.b == pytest.approx(math.log(params.a), rel=1e-15)
    # the certificate: at c = implied_c the defect is nonnegative pointwise
    up = params.u_plus()
    defect = apply_residual(up, h, params.implied_c).residual / h.grid.weights
    assert float(np.min(defect)) >= -1e-12
    # single edge: implied_c collapses to (a/2) int h
    assert params.implied_c == pytest.approx(0.5 * params.a * integrate(h), rel=1e-12)


def test_build_upper_scale_for_known_profile():
    # h(s) = s - 1 on the unit edge: m = s^2/4 - s^3/6 - 1/24 solves
    # d2m = mean(h) - h, max |m| = 1/24, so a -> 24 ln(5/4) as the grid refines
    grid = make_single(cells=256)
    h = sample_function(grid, lambda s: s - 1.0)
    params = build_upper(h)
    exact_a = 24.0 * math.log(1.25)
    assert params.a == pytest.approx(exact_a, rel=1e-4)  # O(h^2) in m
    assert params.implied_c == pytest.approx(-exact_a / 4.0, rel=1e-4)


def test_build_upper_on_constant_h_takes_m_zero():
    # h = -1: the flux problem has m = 0, so a = 1, b = 0 and u+ = 0, and
    # implied_c = mean h + sup|h| rho with rho = min(|G|, 1) / 2 = 1/2
    h = constant(make_star3(cells=16), -1.0)
    params = build_upper(h)
    assert not np.any(params.m.values)
    assert (params.a, params.b) == (1.0, 0.0)
    assert params.implied_c == pytest.approx(-0.5, rel=1e-14)
    up = params.u_plus()
    assert not np.any(up.values)
    defect = apply_residual(up, h, params.implied_c).residual / h.grid.weights
    assert float(np.min(defect)) >= -1e-12


def test_build_upper_needs_negative_integral():
    grid = make_single(cells=32)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) + 0.5)
    with pytest.raises(IntegralNotNegative):
        build_upper(h)


def test_build_upper_hneg_guards():
    grid = make_single(cells=32)
    with pytest.raises(HNotNonpositive):
        build_upper_hneg(cos_h(cells=32), -1.0)
    with pytest.raises(ValueError):
        build_upper_hneg(constant(grid, -1.0), 1.0)
    with pytest.raises(IntegralNotNegative, match="h <= 0 with int h = 0"):
        build_upper_hneg(constant(grid, 0.0), -1.0)
    up = build_upper_hneg(constant(grid, -1.0), -10.0)
    # h <= 0 makes any constant above ln(-c / -mean h) an upper solution;
    # the constructed one is strictly inside the admissible region
    defect = apply_residual(up, constant(grid, -1.0), -10.0).residual / grid.weights
    assert float(np.min(defect)) > 0.0


# ----------------------------------------------------------------------
# monotone iteration
# ----------------------------------------------------------------------

def test_monotone_constant_instance():
    grid = make_triangle(cells=24)
    h = constant(grid, -1.0)
    c = -2.0
    lo, up = ordered_pair(h, c)
    sol = monotone_iterate(h, c, lo, up)
    assert np.max(np.abs(sol.u.values - math.log(2.0))) <= 1e-10
    hist = sol.report.monotone_history
    assert len(hist) == sol.report.iterations
    for row in hist:
        assert row["monotone_slack"] >= -1e-12
        assert row["lower_slack"] >= -1e-12


def test_monotone_rejects_swapped_pair():
    grid = make_single(cells=32)
    h = constant(grid, -1.0)
    lo, up = ordered_pair(h, -2.0)
    with pytest.raises(OrderingViolated):
        monotone_iterate(h, -2.0, up, lo)


def test_monotone_rejects_fake_upper():
    h = cos_h(cells=64)
    c = -0.5
    lo, _ = ordered_pair(constant(h.grid, -1.0), c)
    fake_up = constant(h.grid, 10.0)  # way above: e^u blows the defect negative
    with pytest.raises(OrderingViolated):
        monotone_iterate(h, c, lo, fake_up)


def test_monotone_rejects_a_lower_solution_on_another_grid():
    h = cos_h(cells=32)
    c = 0.3 * build_upper(h).implied_c
    lo, up = ordered_pair(h, c)
    with pytest.raises(GridMismatch, match="^u_minus lives on a different grid$"):
        monotone_iterate(h, c, constant(make_single(cells=16), float(lo.values[0])), up)


def test_monotone_names_its_sweep_budget(monkeypatch):
    # the sweeps alone need 72 sweeps here (Newton off)
    h = cos_h(cells=96)
    c = 0.3 * build_upper(h).implied_c
    lo, up = ordered_pair(h, c)
    monkeypatch.setattr(solvers, "_damped_newton", lambda *args, **kwargs: None)
    monkeypatch.setattr(solvers, "MAX_ITER_MONOTONE", 3)
    with pytest.raises(NoConvergence, match="^monotone iteration exhausted 3 sweeps$"):
        monotone_iterate(h, c, lo, up)


def test_monotone_rejects_an_upper_solution_as_the_lower():
    # u+ is a strict upper solution: as u- its defect is positive
    h = cos_h(cells=96)
    c = 0.3 * build_upper(h).implied_c
    _, up = ordered_pair(h, c)
    with pytest.raises(OrderingViolated, match="^u_minus is not a discrete lower solution"):
        monotone_iterate(h, c, up, up)


def test_monotone_requires_negative_c():
    grid = make_single(cells=16)
    h = constant(grid, -1.0)
    lo, up = ordered_pair(h, -1.0)
    with pytest.raises(ValueError):
        monotone_iterate(h, 1.0, lo, up)


def test_monotone_report_counts_refreshes_and_tails():
    h = cos_h(cells=96)
    c = 0.3 * build_upper(h).implied_c
    sol = solve_negative(h, c)
    details = sol.report.to_dict()["details"]
    assert details["shift_refreshes"] == (sol.report.iterations - 1) // solvers.SHIFT_REFRESH
    assert details["tail_attempts"] >= 1
    assert details["rejected_tails"] == []
    # the flux solve of build_upper, the first shift and every refresh
    assert details["factorizations"] >= 2 + details["shift_refreshes"]


@pytest.mark.parametrize("reason", ["newton_failed", "left_sandwich"])
def test_monotone_records_rejected_tails(monkeypatch, reason):
    # a refused first tail is the only one: the sweeps alone then finish the
    # solve (72 of them), with no second try before roundoff
    h = cos_h(cells=96)
    c = 0.3 * build_upper(h).implied_c
    lo, up = ordered_pair(h, c)
    first = monotone_iterate(h, c, lo, up)
    newton = solvers._damped_newton
    calls = []

    def first_tail_rejected(ws, c, seed):
        calls.append(ws.ctol(c))
        if len(calls) > 1:
            return newton(ws, c, seed)
        return None if reason == "newton_failed" else seed + 1.0  # above u_n

    monkeypatch.setattr(solvers, "_damped_newton", first_tail_rejected)
    sol = monotone_iterate(h, c, lo, up)
    details = sol.report.to_dict()["details"]
    assert details["newton_tail"] is False
    assert details["tail_attempts"] == len(calls) == 1
    assert details["rejected_tails"] == [{"sweep": 1, "reason": reason}]
    assert calls == [1e-8 * (1.0 + abs(c))]  # the tail aims at the solve's own tol
    assert sol.report.monotone_history[-1]["step"] <= 1e-8  # the sweeps reached tol
    assert sol.report.final_residual <= 1e-8 * (1.0 + abs(c))
    assert np.max(np.abs(sol.u.values - first.u.values)) <= 1e-7


@pytest.mark.parametrize("cells", [96, 1536])
def test_newton_finishes_right_after_the_first_sweep(monkeypatch, cells):
    h = cos_h(cells=cells)
    c = 0.3 * build_upper(h).implied_c
    sol = solve_negative(h, c)
    details = sol.report.details
    assert sol.report.iterations == 1 and details["newton_tail"] is True
    assert details["rejected_tails"] == []
    # the sweeps alone, until a step is at most tol (72 of them)
    monkeypatch.setattr(solvers, "_damped_newton", lambda *args, **kwargs: None)
    sweeps = solve_negative(h, c)
    assert sweeps.report.details["newton_tail"] is False and sweeps.report.iterations <= 80
    assert np.max(np.abs(sol.u.values - sweeps.u.values)) <= 1e-7


def test_a_first_sweep_root_above_the_sweep_is_refused(monkeypatch):
    # the allowance above u_1 is the ordering test's 1e-12 plus
    # 1e-8 (1 + |c|), not ten times the first step (about 1 here); after the
    # refusal the sweeps finish alone
    h = cos_h(cells=96)
    c = 0.3 * build_upper(h).implied_c
    lo, up = ordered_pair(h, c)
    newton = solvers._damped_newton
    calls = []

    def first_root_above(ws, c_, seed):
        calls.append(seed)
        if len(calls) > 1:
            return newton(ws, c_, seed)
        return seed + 2e-8 * (1.0 + abs(c))

    monkeypatch.setattr(solvers, "_damped_newton", first_root_above)
    sol = monotone_iterate(h, c, lo, up)
    details = sol.report.details
    assert details["rejected_tails"] == [{"sweep": 1, "reason": "left_sandwich"}]
    assert details["newton_tail"] is False and details["tail_attempts"] == len(calls) == 1
    assert sol.report.final_residual <= 1e-8 * (1.0 + abs(c))


def test_a_finish_under_tol_tries_only_the_full_step(monkeypatch):
    # at a solution under tol, a full step that does not lower the merit
    # ends the finish with the best u: one linearization for the seed and
    # one for that step, no halvings
    h = cos_h(cells=96)
    c = 0.3 * build_upper(h).implied_c
    u = solve_negative(h, c).u.values
    ws = solvers._Workspace(h)
    tol = 1e-8 * (1.0 + abs(c))
    assert ws.weak_norm(ws.residual(u, c)) <= tol
    factor = ws.factor

    def negated(d, border=None):
        # an uphill step: the negated Newton step doubles the residual
        lu = factor(d, border)
        solve_checked = lu.solve_checked
        lu.solve_checked = lambda b: -solve_checked(b)
        return lu

    monkeypatch.setattr(ws, "factor", negated)
    linearize = ws.linearize
    calls = []
    monkeypatch.setattr(ws, "linearize", lambda v, c_: calls.append(c_) or linearize(v, c_))
    assert np.array_equal(solvers._damped_newton(ws, c, u), u)
    assert len(calls) == 2


def test_the_iterate_of_the_last_budgeted_newton_step_is_checked(monkeypatch):
    # 16-cell edge, h = -1, c = -2, from u = 0: the fifth step lands at
    # residual 2.2e-13, so a budget of five steps ends at the root ln 2
    h = constant(make_single(cells=16), -1.0)
    ws = solvers._Workspace(h)
    monkeypatch.setattr(solvers, "MAX_ITER_NEWTON", 5)
    root = solvers._damped_newton(ws, -2.0, np.zeros(h.grid.ndof))
    assert root is not None and ws.counts.factorizations == 5
    assert ws.weak_norm(ws.residual(root, -2.0)) <= 1e-12
    assert np.max(np.abs(root - math.log(2.0))) <= 1e-12


def test_linearize_forms_the_residual_and_the_jacobian_shift_bit_for_bit():
    h = theta_h()
    ws = solvers._Workspace(h)
    u = np.random.default_rng(5).standard_normal(h.grid.ndof)
    r, shift = ws.linearize(u, -0.7)
    assert np.array_equal(r, ws.residual(u, -0.7))
    assert np.array_equal(shift, ws.jacobian_shift(u))
    # nonfinite exactly where e^u overflows, with no warning
    u[3] = 800.0
    r, _ = ws.linearize(u, -0.7)
    assert np.flatnonzero(~np.isfinite(r)).tolist() == [3]


def test_the_first_sweep_finish_adds_at_most_one_tail_where_the_sweeps_fail(monkeypatch):
    # ROADMAP item 1: at 12288 cells the sweeps reach roundoff above tol and
    # every Newton tail fails; the tail after the first sweep and the one at
    # the roundoff sweep are the only two, and the error names the last
    h = cos_h(cells=12288)
    c = 0.5 * build_upper(h).implied_c
    finish = solvers._newton_finish
    calls = []
    monkeypatch.setattr(solvers, "_newton_finish",
                        lambda *args, **kwargs: calls.append(kwargs) or finish(*args, **kwargs))
    try:
        sol = solve_negative(h, c)
    except NoConvergence as exc:
        message = str(exc)
        assert message.startswith("monotone sweeps at roundoff after ")
        assert message.endswith("and the Newton tail failed (newton_failed)")
        assert calls == [{"sweep": 1}, {"sweep": int(message.split()[5])}]
    else:
        assert sol.report.final_residual <= 1e-8 * (1.0 + abs(c))
        assert calls[0] == {"sweep": 1} and len(calls) <= 2


def sweeps_only(monkeypatch, h, c):
    """solve_negative with every Newton finish switched off."""
    with monkeypatch.context() as m:
        m.setattr(solvers, "_damped_newton", lambda *args, **kwargs: None)
        sol = solve_negative(h, c)
    assert sol.report.details["newton_tail"] is False
    assert sol.report.final_residual <= 1e-8 * (1 + abs(c))
    return sol


@pytest.mark.parametrize("cells", [96, 1536])
def test_least_shift_sweeps_at_most_40(monkeypatch, cells):
    h = cos_h(cells=cells)
    c = 0.3 * build_upper(h).implied_c
    sol = solve_negative(h, c)
    assert sol.report.iterations <= 40
    assert sol.report.final_residual <= 1e-8 * (1 + abs(c))
    # the sweeps alone, with the shift refreshed from the iterate, reach
    # residual tol within 80 sweeps (72; 369 with the shift of u+ kept)
    assert sweeps_only(monkeypatch, h, c).report.iterations <= 80


@pytest.mark.parametrize("case", ["certified-0.3", "certified-0.9", "hneg-star3", "theta"])
def test_matches_reference_iteration_with_the_old_shift(case):
    if case.startswith("certified"):
        h = cos_h(cells=96)
        c = float(case.split("-")[1]) * build_upper(h).implied_c
    elif case == "hneg-star3":
        h = random_h_nonpositive(make_star3(cells=32), np.random.default_rng(3))
        c = -0.7
    else:
        h = theta_h()
        c = 0.5 * build_upper(h).implied_c
    _, up = ordered_pair(h, c)
    sol = solve_negative(h, c)
    assert np.max(np.abs(sol.u.values - reference_monotone(h, c, up))) <= 1e-9


def test_pair_with_small_defect_solves_where_h_is_positive_on_an_edge():
    # u+ certified at implied_c, used a little below: its defect is -5e-10
    # at one node, inside the admitted 1e-9 (1 + |c|)
    h = theta_h()
    params = build_upper(h)
    up = params.u_plus()
    defect = apply_residual(up, h, params.implied_c).residual / h.grid.weights
    c = params.implied_c - float(np.min(defect)) - 5e-10
    lo, _ = ordered_pair(h, params.implied_c)
    sol = monotone_iterate(h, c, lo, up)
    assert sol.report.details["upper_defect"] == pytest.approx(-5e-10, rel=1e-3)
    assert sol.report.final_residual <= 1e-8 * (1 + abs(c))
    assert apply_residual(sol.u, h, c).weak_residual_norm <= 1e-8 * (1 + abs(c))


def test_theta_pair_ordering_guards():
    h = theta_h()
    c = 0.5 * build_upper(h).implied_c
    lo, up = ordered_pair(h, c)
    with pytest.raises(OrderingViolated):
        monotone_iterate(h, c, up, lo)
    with pytest.raises(OrderingViolated):
        monotone_iterate(h, c, lo, constant(h.grid, 10.0))


def test_refreshed_shift_cuts_sweeps_at_768_cells(monkeypatch):
    h = cos_h(cells=768)
    c = 0.3 * build_upper(h).implied_c
    sol = solve_negative(h, c)
    assert sol.report.iterations <= 100
    assert sol.report.final_residual <= 1e-8 * (1 + abs(c))
    # the sweeps alone: 72, against 369 with the shift of u+ kept throughout
    sweeps = sweeps_only(monkeypatch, h, c).report
    assert sweeps.iterations <= 100 and sweeps.details["shift_refreshes"] > 0


@pytest.mark.parametrize("frac", [0.3, 0.5])
def test_newton_tail_finishes_at_1536_cells(monkeypatch, frac):
    h = cos_h(cells=1536)
    c = frac * build_upper(h).implied_c
    sol = solve_negative(h, c)
    assert sol.report.details["newton_tail"] is True
    assert apply_residual(sol.u, h, c).weak_residual_norm <= 1e-8 * (1 + abs(c))
    # with the finish after the first sweep switched off, no later tail is
    # tried: the sweeps alone finish (at sweep 72, resp. 73), to the same u
    newton = solvers._damped_newton
    calls = []

    def all_but_the_first(*args, **kwargs):
        calls.append(1)
        return None if len(calls) == 1 else newton(*args, **kwargs)

    monkeypatch.setattr(solvers, "_damped_newton", all_but_the_first)
    later = solve_negative(h, c)
    details = later.report.details
    assert details["newton_tail"] is False and len(calls) == details["tail_attempts"] == 1
    assert details["rejected_tails"] == [{"sweep": 1, "reason": "newton_failed"}]
    assert later.report.iterations <= 80
    assert apply_residual(later.u, h, c).weak_residual_norm <= 1e-8 * (1 + abs(c))
    assert np.max(np.abs(later.u.values - sol.u.values)) <= 1e-7


def test_roundoff_sweeps_never_report_an_ordering_violation():
    h = cos_h(cells=3072)
    c = 0.3 * build_upper(h).implied_c
    try:
        sol = solve_negative(h, c)
    except NoConvergence as exc:
        assert "roundoff" in str(exc)
    else:
        assert sol.report.final_residual <= 1e-8 * (1 + abs(c))


# ----------------------------------------------------------------------
# the three routes of solve_negative
# ----------------------------------------------------------------------

@pytest.mark.parametrize("c", [0.0, 0.5])
def test_solve_negative_requires_negative_c(c):
    with pytest.raises(ValueError, match=r"^solve_negative requires c < 0$"):
        solve_negative(cos_h(cells=32), c)


def test_route_h_nonpositive():
    grid = make_star3(cells=32)
    h = constant(grid, -1.0)
    sol = solve_negative(h, -2.0)
    assert sol.report.method == "monotone(h<=0)"
    assert np.max(np.abs(sol.u.values - math.log(2.0))) <= 1e-10


def test_route_certified():
    h = cos_h()
    params = build_upper(h)
    c = 0.5 * params.implied_c  # inside the certified range
    sol = solve_negative(h, c)
    assert sol.report.method == "monotone(certified)"
    assert sol.report.details["implied_c"] == pytest.approx(params.implied_c)
    assert apply_residual(sol.u, h, c).weak_residual_norm <= 1e-8 * (1 + abs(c))


def test_route_continuation():
    h = cos_h()
    params = build_upper(h)
    c = 2.0 * params.implied_c  # below certified, above the fold
    sol = solve_negative(h, c)
    assert sol.report.method == "monotone(continuation)"
    assert apply_residual(sol.u, h, c).weak_residual_norm <= 1e-8 * (1 + abs(c))


def test_below_fold_reports_no_upper_solution():
    h = cos_h(cells=64)
    with pytest.raises(NoUpperSolutionFound):
        solve_negative(h, -1.0)  # an order of magnitude below the threshold


def test_continuation_report_names_its_upper_solution():
    h = cos_h()
    params = build_upper(h)
    c = 2.0 * params.implied_c
    details = solve_negative(h, c).report.to_dict()["details"]
    # a solution at c_psi < c is a strict upper solution at c; the walk
    # lands close below c
    assert c - 1e-2 * (params.implied_c - c) <= details["c_psi"] < c
    assert details["branch_points"] >= 2
    assert details["continuation_from"] == details["implied_c"] == params.implied_c


def half_way_to_fold(h):
    est = estimate_threshold(h)
    c0 = est.analytic_upper_bound
    return c0 + 0.5 * (est.details["c_star"] - c0)


def test_an_aimed_step_that_lands_below_c_is_kept():
    # the first aimed step lands further below its aim than the aim lies
    # below c: the walk keeps it as the upper solution and solves nothing
    # else (a walk that refuses such a step solves 4 points here)
    h = random_h_sign_changing(make_star3(cells=32), np.random.default_rng(0))
    c = half_way_to_fold(h)
    sol = solve_negative(h, c)
    details = sol.report.details
    assert sol.report.method == "monotone(continuation)"
    assert details["branch_points"] == 2 and details["c_psi"] < c
    assert apply_residual(sol.u, h, c).weak_residual_norm <= 1e-8 * (1 + abs(c))


@pytest.mark.parametrize("cells", [768, 1536, 3072])
def test_continuation_converges_on_fine_edges(cells):
    h = cos_h(cells=cells)
    c = half_way_to_fold(h)
    sol = solve_negative(h, c)
    assert sol.report.method == "monotone(continuation)"
    assert apply_residual(sol.u, h, c).weak_residual_norm <= 1e-8 * (1 + abs(c))


def test_continuation_converges_on_star3_at_384_cells():
    h = sample_function(make_star3(cells=384), lambda s: math.cos(math.pi * s) - 0.1)
    c = half_way_to_fold(h)
    sol = solve_negative(h, c)
    assert sol.report.method == "monotone(continuation)"
    assert apply_residual(sol.u, h, c).weak_residual_norm <= 1e-8 * (1 + abs(c))


@pytest.mark.parametrize("make, seed", [(make_single, 297), (make_star3, 21), (make_path3, 556)])
def test_fold_newton_backs_off_where_the_corrector_fails(make, seed):
    # where dc/dmu changes fast, a Newton point of the search between the
    # straddling points can lie too far from the end it is predicted from
    # for the corrector: in estimate_threshold's fold search (the first two)
    # or in solve_negative's walk (the third); the search must come closer
    # instead of giving up
    h = random_h_sign_changing(make(cells=48), np.random.default_rng(seed))
    est = estimate_threshold(h)
    sol = solve_negative(h, est.c_hi)
    assert apply_residual(sol.u, h, est.c_hi).weak_residual_norm <= 1e-8 * (1 + abs(est.c_hi))
    with pytest.raises(NoUpperSolutionFound):
        solve_negative(h, est.c_lo)


@pytest.mark.parametrize("where", ["c_lo", "far_below"])
def test_below_fold_error_names_the_fold(where):
    h = cos_h(cells=96)
    est = estimate_threshold(h)
    bracket_tol = est.c_hi - est.c_lo
    c = est.c_lo if where == "c_lo" else 20.0 * est.c_lo
    with pytest.raises(NoUpperSolutionFound) as info:
        solve_negative(h, c)
    assert abs(info.value.c_star - est.details["c_star"]) <= bracket_tol


def test_refuses_nonnegative_integral():
    grid = make_single(cells=32)
    with pytest.raises(NotSolvable):
        solve_negative(constant(grid, 1.0), -1.0)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) + 0.2)
    with pytest.raises(NotSolvable):
        solve(h, -0.5)


def test_dispatch_routes_negative():
    grid = make_single(cells=32)
    sol = solve(constant(grid, -1.0), -2.0)
    assert sol.report.method.startswith("monotone")


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_solve_names_a_nonfinite_c(c):
    h = constant(make_single(cells=16), -1.0)
    with pytest.raises(ValueError, match=f"c must be finite, got {c!r}"):
        solve(h, c)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_every_public_solver_rejects_a_bad_tol(tol):
    # unchecked, nan would run every descent iteration and report "Converged";
    # 0 and -1 would stall at c = 0 and break the sandwich at c < 0
    grid = make_single(cells=32)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) - 0.1)
    lower, upper = constant(grid, -30.0), constant(grid, 30.0)
    calls = [lambda: solve(h, 0.0, tol=tol), lambda: solve(h, 0.3, tol=tol),
             lambda: solve(h, -0.01, tol=tol), lambda: solvers.solve_zero(h, tol=tol),
             lambda: solvers.solve_positive(h, 0.3, tol=tol),
             lambda: solve_negative(h, -0.01, tol=tol),
             lambda: monotone_iterate(h, -0.01, lower, upper, tol=tol)]
    for call in calls:
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol!r}"):
            call()


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_a_bad_tol_is_the_first_error(tol):
    # each solver builds its workspace first, and the workspace checks tol
    # before it reads h: c of the wrong sign, h that is not solvable, a
    # mismatched pair and a missing h come second
    grid = make_single(cells=16)
    h = sample_function(grid, lambda s: math.cos(math.pi * s) - 0.1)
    other = constant(make_single(cells=8), -30.0)
    calls = [lambda: solvers.solve_zero(constant(grid, 1.0), tol=tol),
             lambda: solvers.solve_positive(h, -1.0, tol=tol),
             lambda: solvers.solve_positive(constant(grid, -1.0), 0.5, tol=tol),
             lambda: solve_negative(h, 0.5, tol=tol),
             lambda: solve_negative(constant(grid, 1.0), -1.0, tol=tol),
             lambda: monotone_iterate(h, 0.5, other, other, tol=tol),
             lambda: solvers._Workspace(None, tol=tol)]
    for call in calls:
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol!r}"):
            call()


def test_the_continuation_route_reads_the_tol_of_its_solve(monkeypatch):
    # the branch corrector, the monotone sweeps and their Newton finishes all
    # stop on the workspace's bound: at tol 1e-2 the walk and the sandwich
    # take fewer factorizations than at the default tol (13 against 14)
    h = sample_function(make_single(cells=32), lambda s: math.cos(math.pi * s) - 0.5)
    strict = solve_negative(h, -1.0)
    loose = solve_negative(h, -1.0, tol=1e-2)
    for sol in (strict, loose):
        assert sol.report.method == "monotone(continuation)"
    assert loose.report.details["factorizations"] < strict.report.details["factorizations"]
    assert loose.report.final_residual <= 1e-2 * 2.0
    # two Newton steps from a perturbed solution leave a residual of 5.9e-7:
    # a finish keeps that root at tol 1e-2 and refuses it at the default
    seed = strict.u.values + 0.05 * np.sin(np.arange(h.grid.ndof))
    monkeypatch.setattr(solvers, "MAX_ITER_NEWTON", 2)
    for tol, kept in ((1e-2, True), (solvers.DEFAULT_TOL, False)):
        ws, rejected = solvers._Workspace(h, tol=tol), []
        root = solvers._newton_finish(ws, -1.0, seed, lambda r: None, rejected)
        assert (root is not None) == kept and len(rejected) == (not kept)


def test_refuse_sandwich_keeps_only_roots_inside_it():
    lo, u, slack = np.zeros(5), np.ones(5), 1e-3
    inside = np.array([0.5, -slack, 1.0 + slack, 0.0, 1.0])
    assert solvers._refuse_sandwich(inside, lo, u, slack) is None
    for k, off in ((1, -2e-3), (2, 1.0 + 2e-3)):
        root = inside.copy()
        root[k] = off
        assert solvers._refuse_sandwich(root, lo, u, slack) == "left_sandwich"


def test_newton_finish_records_each_refusal(monkeypatch):
    h = cos_h(cells=16)
    ws = solvers._Workspace(h, tol=5e-9)
    seed = np.zeros(h.grid.ndof)
    calls = []

    def newton(ws_, c, seed_):
        calls.append((c, ws_.ctol(c), solvers.MAX_ITER_NEWTON))
        return None if len(calls) == 1 else seed_ + 1.0

    monkeypatch.setattr(solvers, "_damped_newton", newton)
    rejected = []
    with monkeypatch.context() as m:
        m.setattr(solvers, "MAX_ITER_NEWTON", 50)
        assert solvers._newton_finish(ws, -1.0, seed, lambda r: None, rejected,
                                      sweep=3) is None
    assert solvers._newton_finish(ws, -1.0, seed, lambda r: "left_sandwich",
                                  rejected, sweep=4) is None
    root = solvers._newton_finish(ws, -1.0, seed, lambda r: None, rejected, sweep=5)
    assert np.array_equal(root, seed + 1.0)
    assert rejected == [{"sweep": 3, "reason": "newton_failed"},
                        {"sweep": 4, "reason": "left_sandwich"}]
    assert calls == [(-1.0, 1e-8, 50), (-1.0, 1e-8, 60), (-1.0, 1e-8, 60)]
