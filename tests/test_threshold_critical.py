"""Threshold bracketing and the behavior at the critical c."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from kwnet import (
    GridFunction,
    ThresholdEstimate,
    apply_residual,
    build_upper,
    constant,
    estimate_threshold,
    integrate,
    load_problem,
    sample_function,
    solve_critical,
    solve_negative,
)
from kwnet import solvers
from kwnet.assembly import GridOperators
from kwnet.cli import _write_solution_csv, main
from kwnet.errors import BoundBlowup, IntegralNotNegative, NoConvergence, NoUpperSolutionFound
from helpers import (make_path3, make_single, make_star3, make_theta, oracle_fold,
                     random_h_sign_changing)


def cos_h(cells=96):
    grid = make_single(cells=cells)
    return sample_function(grid, lambda s: math.cos(math.pi * s) - 0.1)


def test_threshold_minus_infinity_for_nonpositive_h():
    grid = make_star3(cells=24)
    est = estimate_threshold(constant(grid, -1.0))
    assert est.minus_infinity
    assert est.c_lo is None and est.c_hi is None and est.analytic_upper_bound is None


def test_threshold_rejects_nonnegative_integral():
    grid = make_single(cells=32)
    with pytest.raises(IntegralNotNegative):
        estimate_threshold(constant(grid, 1.0))


def test_the_fold_search_ends_on_the_approach_side_and_certifies_c_hi():
    # path3, seed 1: the Newton points of the fold search land past the fold
    # and before it in turn, and the search ends before it, at the fold
    # point.  That point lies too close to the fold to be a safe upper
    # solution at c_hi, so one more is solved, half way in c from c* to c_hi
    h = random_h_sign_changing(make_path3(cells=32), np.random.default_rng(1))
    est = estimate_threshold(h)
    c_star, first = est.details["c_star"], est.details["branch"][0]["dc_dmu"]
    *_, past, fold, psi = est.details["refinement"]
    assert past["dc_dmu"] * first < 0.0
    assert fold["c"] == c_star and fold["dc_dmu"] * first > 0.0
    assert psi["dc_dmu"] * first > 0.0
    assert c_star + 0.25 * (est.c_hi - c_star) < psi["c"] < est.c_hi
    # the critical walk of the same bracket solves that point as well
    assert est.details["probes"] == solve_critical(h, est).report.details["branch_points"]


def test_threshold_bracket_properties():
    h = cos_h()
    est = estimate_threshold(h)
    assert not est.minus_infinity
    assert est.c_lo < est.c_hi < 0.0
    width = est.c_hi - est.c_lo
    assert width <= 1e-4 * abs(est.analytic_upper_bound) * 1.0001
    # analytic bound comes from the certified construction and sits above
    assert est.c_hi <= est.analytic_upper_bound
    assert est.details["probes"] >= 3
    # work counts cover every probe, the failed ones included
    assert isinstance(est.details["probes"], int)
    assert est.details["factorizations"] > est.details["probes"]
    # the bracket sits on the fold of the traced branch, where dc/dmu
    # changes sign between the last two traced points
    assert est.c_lo < est.details["c_star"] < est.c_hi
    last, past = est.details["branch"][-2:]
    assert last["dc_dmu"] * past["dc_dmu"] < 0.0


def test_threshold_edges_solve_and_fail():
    h = cos_h()
    est = estimate_threshold(h)
    sol = solve_negative(h, est.c_hi)
    assert apply_residual(sol.u, h, est.c_hi).weak_residual_norm <= 1e-8 * (1 + abs(est.c_hi))
    with pytest.raises(NoUpperSolutionFound):
        solve_negative(h, est.c_lo)


def test_threshold_refinement_sweep():
    # from 48 to 3072 cells every bracket holds (c_hi solves, c_lo does not)
    # and the fold converges at the O(h^2) rate of the discretization
    stars = []
    ests = {}
    for cells in (48, 96, 192, 384, 768, 1536, 3072):
        h = cos_h(cells)
        est = ests[cells] = estimate_threshold(h)
        bt = 1e-4 * abs(est.analytic_upper_bound)
        assert est.c_hi - est.c_lo <= bt * 1.0001
        sol = solve_negative(h, est.c_hi)
        assert sol.report.final_residual <= 1e-8 * (1 + abs(est.c_hi))
        with pytest.raises(NoUpperSolutionFound):
            solve_negative(h, est.c_lo)
        stars.append(est.details["c_star"])
    diffs = np.diff(stars)
    ratios = diffs[:-1] / diffs[1:]
    assert np.all((ratios >= 3.5) & (ratios <= 4.5)), ratios
    # the 768-cell fold found by oracle continuation alone
    oracle_lo, oracle_hi = -0.04978393114880529, -0.04978391022897212
    est = ests[768]
    assert est.c_lo <= oracle_lo and oracle_hi <= est.c_hi


def test_the_fold_search_on_the_96_cell_edge_is_cheap_and_exact():
    # Newton on dc/dmu = 0 with the curvature of the branch: an Illinois
    # secant on dc/dmu = 0 takes 44 factorizations to place this fold at
    # c* = -0.0497795237125169, to 1e-3 bracket_tol
    h = cos_h()
    est = estimate_threshold(h)
    assert est.details["factorizations"] < 44
    assert abs(est.details["c_star"] + 0.0497795237125169) <= 2e-3 * (est.c_hi - est.c_lo)


def test_threshold_matches_oracle_fold():
    h = cos_h(cells=64)
    bt = 2e-5
    est = estimate_threshold(h, bracket_tol=bt)
    lo, hi = oracle_fold(h, est.c_hi, 2.0 * est.c_lo, gap=bt)
    fold = 0.5 * (lo + hi)
    assert est.c_lo - 2 * bt <= fold <= est.c_hi + 2 * bt


def test_threshold_and_critical_make_no_solve_negative_call(monkeypatch):
    # both take their upper solutions from the traced branch
    def refuse(*args, **kwargs):
        raise AssertionError("solve_negative was called")

    monkeypatch.setattr(solvers, "solve_negative", refuse)
    h = cos_h()
    est = solvers.estimate_threshold(h)
    sol = solvers.solve_critical(h, est)
    assert sol.report.details["branch_points"] >= len(sol.report.details["approach"])


def theta_h():
    grid = make_theta()
    return random_h_sign_changing(grid, np.random.default_rng(1))


def _spy_sandwiches(monkeypatch):
    """The Solutions of every _sandwich call from now on, in order; the last
    one of estimate_threshold is the certificate of c_hi."""
    sandwich, sols = solvers._sandwich, []

    def spy(*args):
        sols.append(sandwich(*args))
        return sols[-1]

    monkeypatch.setattr(solvers, "_sandwich", spy)
    return sols


@pytest.mark.parametrize("make_h", [
    cos_h,
    lambda: random_h_sign_changing(make_star3(cells=32), np.random.default_rng(0)),
    lambda: random_h_sign_changing(make_theta(cells=24), np.random.default_rng(0)),
], ids=["edge96", "star3", "theta"])
def test_the_certificate_tail_starts_on_the_branch(monkeypatch, make_h):
    # the Newton tail of the c_hi certificate starts from the walk's
    # quadratic model at c_hi: 2-3 factorizations, where the tail from the
    # first sweep took 4-6 (5 on each of these)
    finish, tails = solvers._newton_finish, []

    def spy(ws, *args, **kwargs):
        start = ws.counts.factorizations
        root = finish(ws, *args, **kwargs)
        tails.append(ws.counts.factorizations - start)
        return root

    monkeypatch.setattr(solvers, "_newton_finish", spy)
    sols = _spy_sandwiches(monkeypatch)
    estimate_threshold(make_h())
    details = sols[-1].report.details
    assert details["newton_tail"] is True and details["rejected_tails"] == []
    assert details["tail_attempts"] == 1 and tails[-1] <= 3


def test_a_seed_off_the_branch_leaves_the_certificate_to_the_sweeps(monkeypatch):
    # the other root of the quadratic model lies past the fold: Newton from
    # there finds the solution past it, above the first sweep, which the
    # sandwich refuses; the tail from that sweep then certifies c_hi
    h = cos_h()
    est = estimate_threshold(h)

    def past_the_fold(p, c):
        x = -(p.dc + math.copysign(math.sqrt(p.dc ** 2 + 2.0 * p.ddc * (c - p.c)), p.dc)) / p.ddc
        return p.u + x * (p.du + 0.5 * x * p.ddu)

    for seed, rejected in ((past_the_fold, [{"sweep": 1, "reason": "left_sandwich"}]),
                           (lambda p, c: p.u + 5.0, [])):
        with monkeypatch.context() as m:
            m.setattr(solvers._BranchPoint, "toward", seed)
            sols = _spy_sandwiches(m)
            off = estimate_threshold(h)
        cert = sols[-1]
        assert cert.report.details["rejected_tails"] == rejected
        assert cert.report.details["newton_tail"] is True and cert.report.iterations == 1
        assert (off.c_lo, off.c_hi) == (est.c_lo, est.c_hi)
        assert np.max(np.abs(cert.u.values - solve_negative(h, est.c_hi).u.values)) <= 1e-10


def test_the_estimate_builds_the_critical_record_only_when_asked(monkeypatch):
    # the boundedness record (norms of every approach point) is built by
    # solve_critical, from what the estimate kept at the fold, and matches
    # a walk of the same bracket made by hand
    def refuse(*args, **kwargs):
        raise AssertionError("norms was called")

    h = cos_h()
    with monkeypatch.context() as m:
        m.setattr(solvers, "norms", refuse)
        est = estimate_threshold(h)
    sol = solve_critical(h, est)
    walked = solve_critical(h, ThresholdEstimate(False, est.c_lo, est.c_hi, None))
    for key in ("approach", "c_final", "branch_points", "factorizations", "pivoted_interiors"):
        assert sol.report.details[key] == walked.report.details[key]
    assert sol.report.iterations == walked.report.iterations
    assert np.array_equal(sol.u.values, walked.u.values)
    # each call builds its own Solution
    sol.report.details["approach"].clear()
    assert solve_critical(h, est).report.details["approach"] == walked.report.details["approach"]


@pytest.mark.parametrize("make_h", [cos_h, theta_h], ids=["edge96", "theta"])
def test_critical_descent_unit_edge(make_h):
    h = make_h()
    est = estimate_threshold(h)
    sol = solve_critical(h, est)
    rep = sol.report
    assert rep.method == "critical-fold"
    approach = rep.details["approach"]
    assert len(approach) >= 1
    h1s = [r["h1_norm"] for r in approach]
    assert max(h1s) / min(h1s) <= 10.0
    for r in approach:
        assert r["residual"] <= 1e-8 * (1 + abs(r["c"]))
    # the fold lands on the bracket midpoint, to roundoff from either side
    c_mid, c_final = rep.details["c_midpoint"], rep.details["c_final"]
    assert est.c_lo <= c_final <= est.c_hi
    width = est.c_hi - est.c_lo
    assert abs(c_final - c_mid) <= 0.01 * width
    assert approach[-1]["c"] == c_final
    assert rep.final_residual == approach[-1]["residual"]
    assert apply_residual(sol.u, h, c_final).weak_residual_norm <= 1e-8 * (1 + abs(c_final))
    defect = rep.identity_checks["mass_defect_at_midpoint"]
    assert defect <= width * h.grid.total_length


@pytest.mark.parametrize("cells", [768, 3072])
def test_critical_solution_verifies_at_fine_meshes(tmp_path, cells):
    prob = tmp_path / "edge.json"
    prob.write_text(json.dumps({
        "vertices": ["p", "q"],
        "edges": [{"id": "e1", "tail": "p", "head": "q", "length": 1.0, "cells": cells}],
        "h": "cos(pi*s) - 0.1",
    }))
    spec = load_problem(str(prob))
    est = estimate_threshold(spec.h)
    sol = solve_critical(spec.h, est)
    c_final = sol.report.details["c_final"]
    assert est.c_lo <= c_final <= est.c_hi
    res = apply_residual(sol.u, spec.h, c_final).weak_residual_norm
    assert res <= 1e-8 * (1 + abs(c_final))
    csv_path = str(tmp_path / "edge.solution.csv")
    _write_solution_csv(csv_path, spec, sol.u)
    assert main(["verify", str(prob), csv_path, "--c", repr(c_final)]) == 0


def test_critical_names_the_fold_outside_the_bracket():
    h = cos_h()
    est = estimate_threshold(h)
    width = est.c_hi - est.c_lo
    moved = replace(est, c_lo=est.c_lo + 10.0 * width, c_hi=est.c_hi + 10.0 * width)
    with pytest.raises(NoConvergence, match=r"c\* = ") as info:
        solve_critical(h, moved)
    named = float(re.search(r"c\* = (\S+)", str(info.value)).group(1))
    assert abs(named - est.details["c_star"]) <= 1e-3 * width


def test_a_too_narrow_hand_made_bracket_is_named_as_the_cause():
    # walked to a width of 1e-9 or less, the fold of the 96-cell edge ends at
    # one point, which resolves c only to 4.2e-12, the rounding bound of its
    # residual: a bracket around it holds it however narrow, one that misses
    # it by less than that is named as too narrow, one that misses it by
    # more is blamed itself
    h = cos_h()
    est = estimate_threshold(h)
    c_fold = estimate_threshold(h, bracket_tol=1e-9).details["c_star"]
    for width in (1e-9, 1e-10, 1e-11, 1e-12):
        bracket = by_hand(est, c_lo=c_fold - width / 2, c_hi=c_fold + width / 2)
        assert solve_critical(h, bracket).report.details["c_final"] == c_fold
    for width in (1e-11, 1e-12):
        with pytest.raises(NoConvergence) as info:
            solve_critical(h, by_hand(est, c_lo=c_fold + 2e-12, c_hi=c_fold + 2e-12 + width))
        message = str(info.value)
        named = float(re.match(r"the bracket width c_hi - c_lo = (\S+) ", message).group(1))
        assert named == pytest.approx(width, rel=1e-3)
        assert "is finer than the walk resolves the fold" in message
        assert message.endswith("within the fold point's residual 4.2e-12")
    for width in (1e-9, 1e-11):
        shifted = by_hand(est, c_lo=c_fold - width / 2 + 1e-6, c_hi=c_fold + width / 2 + 1e-6)
        with pytest.raises(NoConvergence, match=r"c\* = \S+ lies outside the bracket") as info:
            solve_critical(h, shifted)
        assert "width" not in str(info.value)


def test_critical_names_a_blowup_of_the_approach_norms(monkeypatch):
    # the approach of the 48-cell edge holds the point that certifies c_hi,
    # then the fold: the fold's norms made 100x larger spread the H1 norms
    # past the 50x bound
    h = cos_h(cells=48)
    est = estimate_threshold(h)
    norms, seen = solvers.norms, []

    def inflated(f):
        nr = norms(f)
        seen.append(f)
        if len(seen) < 2:
            return nr
        return replace(nr, l2=100.0 * nr.l2, h1_seminorm=100.0 * nr.h1_seminorm)

    monkeypatch.setattr(solvers, "norms", inflated)
    with pytest.raises(BoundBlowup, match=r"^H1 norms along the approach spread by 100\.3x$"):
        solve_critical(h, est)
    assert len(seen) == 2


def test_critical_requires_finite_threshold():
    grid = make_single(cells=16)
    est = estimate_threshold(constant(grid, -1.0))
    with pytest.raises(ValueError):
        solve_critical(cos_h(cells=16), est)


def theta_seed_h(seed):
    return random_h_sign_changing(make_theta(), np.random.default_rng(seed))


# theta seeds 0, 3 and 9: the certificate of c_hi solves points after the fold
CARRIED = {
    "edge96": lambda: cos_h(96),
    "edge768": lambda: cos_h(768),
    "star3": lambda: random_h_sign_changing(make_star3(), np.random.default_rng(6)),
    "theta0": lambda: theta_seed_h(0),
    "theta3": lambda: theta_seed_h(3),
    "theta9": lambda: theta_seed_h(9),
}


def count_factorizations(monkeypatch):
    calls = []
    factor = GridOperators.factor

    def counted(self, *args, **kwargs):
        calls.append(1)
        return factor(self, *args, **kwargs)

    monkeypatch.setattr(GridOperators, "factor", counted)
    return calls


def by_hand(est, **bracket):
    return ThresholdEstimate(minus_infinity=False, c_lo=bracket.get("c_lo", est.c_lo),
                             c_hi=bracket.get("c_hi", est.c_hi), analytic_upper_bound=None)


def snapshot(sol):
    return sol.u.values.tobytes(), json.dumps(sol.report.to_dict())


@pytest.mark.parametrize("name", list(CARRIED))
def test_critical_from_the_estimate_is_its_own_fold(monkeypatch, name):
    h = CARRIED[name]()
    est = estimate_threshold(h)

    def refuse(*args, **kwargs):
        raise AssertionError("a carried fold needs no factorization")

    with monkeypatch.context() as m:
        m.setattr(GridOperators, "factor", refuse)
        carried = solve_critical(h, est)
    walked = solve_critical(h, by_hand(est))
    # bitwise: u, c_final, approach, branch_points, iterations, counts and
    # identity checks (json writes every float by its shortest exact repr)
    assert snapshot(carried) == snapshot(walked)
    rep = carried.report
    assert rep.details["bracket"] == [est.c_lo, est.c_hi]
    assert rep.details["c_final"] == est.details["c_star"]
    # the certificate of c_hi takes a point the walk to the fold has solved
    assert est.details["probes"] == rep.details["branch_points"]


def test_critical_walks_for_another_h_or_bracket(monkeypatch):
    h = cos_h()
    est = estimate_threshold(h)
    carried = solve_critical(h, est)
    calls = count_factorizations(monkeypatch)
    # equal values on a compatible grid built anew: the carried fold
    again = solve_critical(cos_h(), est)
    assert not calls and snapshot(again) == snapshot(carried)
    # 2 h on the same grid has the same fold, with u shifted by -ln 2
    doubled = solve_critical(GridFunction(h.grid, 2.0 * h.values), est)
    assert calls
    assert np.allclose(doubled.u.values, carried.u.values - math.log(2.0), atol=1e-6)
    # a bracket widened by replace walks with its own width as fold precision
    width = est.c_hi - est.c_lo
    calls.clear()
    wider = solve_critical(h, replace(est, c_hi=est.c_hi + width))
    assert calls
    assert wider.report.details["bracket"] == [est.c_lo, est.c_hi + width]
    assert snapshot(wider) == snapshot(solve_critical(h, by_hand(est, c_hi=est.c_hi + width)))


def test_critical_reports_are_independent_copies():
    h = cos_h()
    est = estimate_threshold(h)
    first = solve_critical(h, est)
    before = snapshot(first)
    first.report.iterations = -1
    first.report.details["approach"][0]["c"] = 0.0
    first.report.details["bracket"].append(0.0)
    first.report.identity_checks.clear()
    second = solve_critical(h, est)
    assert snapshot(second) == before
    assert second.report is not first.report


@pytest.mark.parametrize("bracket_tol", [0.0, -1e-5, math.nan, math.inf])
def test_threshold_rejects_a_bad_bracket_tol(bracket_tol):
    with pytest.raises(ValueError, match="bracket_tol"):
        estimate_threshold(cos_h(cells=16), bracket_tol=bracket_tol)


@pytest.mark.parametrize("c_lo, c_hi", [(-0.04, -0.05), (-0.05, -0.05), (math.nan, -0.05),
                                        (-0.05, math.nan), (-math.inf, -0.05)])
def test_critical_rejects_a_bad_bracket(c_lo, c_hi):
    est = ThresholdEstimate(minus_infinity=False, c_lo=c_lo, c_hi=c_hi, analytic_upper_bound=None)
    with pytest.raises(ValueError, match="bracket"):
        solve_critical(cos_h(cells=16), est)


def _cos_half_h(cells=32):
    # the problem of CI's console-script step
    return sample_function(make_single(cells=cells), lambda s: math.cos(math.pi * s) - 0.5)


def test_a_too_fine_bracket_tol_is_named_as_the_cause():
    # the fold point of the 96-cell edge resolves c only to 4.2e-12 and that
    # of the 32-cell one to 1.1e-11, the rounding bounds of their residuals,
    # so no branch point certifies a c_hi = c* + bracket_tol / 2 closer to
    # the fold than that
    for h, bracket_tol, gap, c_star, residual in (
            (cos_h(), 1e-12, "5.0e-13", "-0.0497795237", "4.2e-12"),
            (_cos_half_h(), 1e-12, "5.0e-13", "-1.58765309683", "1.1e-11"),
            (_cos_half_h(), 1e-11, "5.0e-12", "-1.58765309683", "1.1e-11")):
        with pytest.raises(NoConvergence) as info:
            estimate_threshold(h, bracket_tol=bracket_tol)
        message = str(info.value)
        assert message.startswith(f"bracket_tol = {bracket_tol!r} is finer than the walk "
                                  "resolves the fold")
        assert re.search(rf"lies {re.escape(gap)} above the fold at c\* = {re.escape(c_star)}\d*, "
                         rf".* residual {re.escape(residual)}$", message)
        assert "below the fold" not in message


def test_the_finest_resolved_bracket_tol_still_certifies():
    # above the widths refused above: c_hi - c* exceeds the fold point's
    # residual, and c_hi is certified
    for h, bracket_tol in ((cos_h(), 1e-9), (_cos_half_h(), 1e-10)):
        est = estimate_threshold(h, bracket_tol=bracket_tol)
        assert est.c_hi - est.c_lo == pytest.approx(bracket_tol, rel=1e-3)
        assert est.c_lo < est.details["c_star"] < est.c_hi
