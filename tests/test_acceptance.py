"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
without -s they still appear for any failing criterion.
"""

import math

import numpy as np

from kwnet import (
    GridFunction,
    build_upper,
    check_moser,
    check_poincare,
    classify,
    constant,
    estimate_threshold,
    fd_gradient_check,
    h1_seminorm,
    identity_report,
    integrate,
    monotone_iterate,
    oracle_newton,
    sample_function,
    solve,
    solve_critical,
    solve_negative,
    solve_positive,
)
from kwnet.errors import Diverged, NotSolvable, NoUpperSolutionFound

from helpers import (
    TOPOLOGIES,
    make_single,
    make_star3,
    make_theta,
    ordered_pair,
    oracle_fold,
    random_grid,
    random_h_nonpositive,
    random_h_positive_somewhere,
    random_h_sign_changing,
    smooth_random,
)


def run_criterion(tag, fn):
    try:
        detail = fn()
    except BaseException as exc:
        print(f"[{tag}] FAIL  {type(exc).__name__}: {exc}")
        raise
    print(f"[{tag}] PASS  {detail}")


# ---------------------------------------------------------------------------
# 1. constant-solution exactness on every topology, pair, grid, and path


def _c01():
    pairs = [(-1.0, -2.0), (-0.5, -3.0), (2.0, 1.0), (1.0, 0.5)]
    bound = 1e-10
    worst = 0.0
    for maker in TOPOLOGIES:
        for cells in (16, 128):
            grid = make_single(cells=cells) if maker is make_single else maker(cells=cells)
            for h0, c in pairs:
                h = constant(grid, h0)
                exact = math.log(c / h0)
                candidates = [solve(h, c).u]
                if c < 0.0:
                    candidates.append(solve_negative(h, c).u)
                    lo, up = ordered_pair(h, c)
                    candidates.append(monotone_iterate(h, c, lo, up).u)
                else:
                    candidates.append(solve_positive(h, c).u)
                for u in candidates:
                    err = float(np.max(np.abs(u.values - exact)))
                    worst = max(worst, err)
                    assert err <= bound, (maker.__name__, cells, h0, c, err)
    return (f"sup-err {worst:.2e} <= {bound:g} over 5 topologies x 4 pairs "
            f"x 2 grids, all paths")


def test_criterion_01_constant_exactness():
    run_criterion("C01 constant-solution exactness", _c01)


# ---------------------------------------------------------------------------
# 2. trichotomy classification and refusal


def _c02():
    grid = make_single(cells=48)
    zero_h = constant(grid, 0.0)
    cosm = sample_function(grid, {"e1": lambda s: np.cos(np.pi * s) - 0.1})
    cosp_02 = sample_function(grid, {"e1": lambda s: np.cos(np.pi * s) + 0.2})
    cosp_01 = sample_function(grid, {"e1": lambda s: np.cos(np.pi * s) + 0.1})
    cosp_005 = sample_function(grid, {"e1": lambda s: np.cos(np.pi * s) + 0.05})

    cases = [
        # (h, c, expected status, expected reason, solvable if NecessaryOK)
        (zero_h, 0.0, "Violates", "HZeroEverywhere"),
        (zero_h, 1.0, "Violates", "HZeroEverywhere"),
        (zero_h, -1.0, "Violates", "HZeroEverywhere"),
        (constant(grid, -1.0), 0.0, "Violates", "HDoesNotChangeSign"),
        (constant(grid, 1.0), 0.0, "Violates", "HDoesNotChangeSign"),
        (cosp_02, 0.0, "Violates", "IntegralHNonneg"),
        (constant(grid, -0.5), 1.0, "Violates", "HNowherePositive"),
        (cosp_01, -1.0, "Violates", "IntegralHNonneg"),
        (constant(grid, 1.0), -1.0, "Violates", "IntegralHNonneg"),
        (cosm, 0.0, "NecessaryOK", "none"),
        (cosp_005, 0.8, "NecessaryOK", "none"),
        (constant(grid, -1.0), -2.0, "NecessaryOK", "none"),
    ]
    assert len(cases) == 12
    for idx, (h, c, status, reason) in enumerate(cases):
        verdict = classify(h, c)
        assert verdict.status == status, (idx, verdict)
        assert verdict.reason == reason, (idx, verdict)
        if status == "Violates":
            try:
                solve(h, c)
                raise AssertionError(f"case {idx}: solver accepted a Violates case")
            except NotSolvable:
                pass
        else:
            sol = solve(h, c)
            assert sol.report.status == "Converged"
            assert sol.report.final_residual <= 1e-8 * (1.0 + abs(c))
    return "12/12 cases classify and refuse/solve exactly as prescribed"


def test_criterion_02_trichotomy():
    run_criterion("C02 trichotomy classification", _c02)


# ---------------------------------------------------------------------------
# 3. monotone-iteration ordering on randomized admissible instances


def _c03():
    rng = np.random.default_rng(3001)
    worst = 0.0
    for i in range(50):
        grid = random_grid(rng, cells_lo=16, cells_hi=48)
        if i % 2 == 0:
            h = random_h_nonpositive(grid, rng)
            c = -float(rng.uniform(0.05, 3.0))
        else:
            h = random_h_sign_changing(grid, rng, depth=float(rng.uniform(0.2, 0.4)))
            c = float(rng.uniform(0.4, 1.0)) * build_upper(h).implied_c
        lo, up = ordered_pair(h, c)
        sol = monotone_iterate(h, c, lo, up)
        assert sol.report.monotone_history, f"instance {i}: empty history"
        for row in sol.report.monotone_history:
            worst = min(worst, row["monotone_slack"], row["lower_slack"])
            assert row["monotone_slack"] >= -1e-12, (i, row)
            assert row["lower_slack"] >= -1e-12, (i, row)
        assert float(np.max(sol.u.values - up.values)) <= 1e-12
    return f"50 instances ordered at every sweep; worst slack {worst:.1e} >= -1e-12"


def test_criterion_03_monotone_ordering():
    run_criterion("C03 monotone ordering", _c03)


# ---------------------------------------------------------------------------
# 4. weak-solution identities for every converged solution


def _c04():
    rng = np.random.default_rng(4001)
    checked = 0
    worst_mass = 0.0
    worst_energy = 0.0

    def check(h, c, sol):
        nonlocal checked, worst_mass, worst_energy
        ident = identity_report(sol.u, h, c)
        total = h.grid.total_length
        mass_bound = 1e-6 * (1.0 + abs(c)) * total
        ratio = ident.mass_defect / mass_bound
        worst_mass = max(worst_mass, ratio)
        assert ident.mass_defect <= mass_bound, (c, ident.mass_defect, mass_bound)
        if c == 0.0:
            energy_bound = 1e-5 * abs(integrate(h))
            worst_energy = max(worst_energy, ident.energy_defect / energy_bound)
            assert ident.energy_defect <= energy_bound
        checked += 1

    for maker in (make_single, make_star3):
        for _ in range(2):
            # the c = 0 energy identity is quadratic in the spacing; the
            # single edge needs the finer grid to clear 1e-5 |int h|
            grid = make_single(cells=512) if maker is make_single else maker(cells=256)
            h = random_h_sign_changing(grid, rng, depth=0.3)
            check(h, 0.0, solve(h, 0.0))

    for maker, c in ((make_single, 0.5), (make_star3, 1.5),
                     (make_theta, 0.8), (make_single, 2.0)):
        grid = make_single(cells=128) if maker is make_single else maker(cells=48)
        h = random_h_positive_somewhere(grid, rng)
        check(h, c, solve(h, c))

    for i in range(4):
        grid = random_grid(rng, cells_lo=32, cells_hi=64)
        if i % 2 == 0:
            h = random_h_nonpositive(grid, rng)
            c = -float(rng.uniform(0.5, 4.0))
        else:
            h = random_h_sign_changing(grid, rng)
            c = 0.5 * build_upper(h).implied_c
        check(h, c, solve(h, c))

    return (f"{checked} solutions: mass defect <= 1e-6(1+|c|)|G| "
            f"(worst {worst_mass:.1%} of bound), c=0 energy defect <= 1e-5|int h| "
            f"(worst {worst_energy:.1%})")


def test_criterion_04_weak_identities():
    run_criterion("C04 weak-solution identities", _c04)


# ---------------------------------------------------------------------------
# 5. oracle equivalence on randomized solvable instances, 30 per regime


def _oracle_diff(sol, h, c, idx):
    """Sup distance between the solver's root and the oracle's.

    Zero seed first; reseed beside the solver root when the blind run
    diverges or lands elsewhere (c = 0 admits a flat pseudo-root at
    u -> -inf, and c < 0 has a second solution branch far below).
    """
    try:
        ora = oracle_newton(h, c)
        diff = float(np.max(np.abs(ora.u.values - sol.u.values)))
        if diff <= 1e-6:
            return diff, False
    except Diverged:
        pass
    noise = np.random.default_rng(7000 + idx).uniform(-0.25, 0.25, h.grid.ndof)
    seed = GridFunction(h.grid, sol.u.values + noise)
    ora = oracle_newton(h, c, seed=seed)
    return float(np.max(np.abs(ora.u.values - sol.u.values))), True


def _c05():
    rng = np.random.default_rng(5001)
    worst = 0.0
    reseeds = 0
    idx = 0
    for regime in ("zero", "positive", "negative"):
        for i in range(30):
            grid = random_grid(rng, cells_lo=16, cells_hi=40)
            if regime == "zero":
                h = random_h_sign_changing(grid, rng, depth=float(rng.uniform(0.15, 0.45)))
                c = 0.0
            elif regime == "positive":
                h = random_h_positive_somewhere(grid, rng)
                c = float(rng.uniform(0.2, 2.0))
            elif i % 2 == 0:
                h = random_h_nonpositive(grid, rng)
                c = -float(rng.uniform(0.2, 3.0))
            else:
                h = random_h_sign_changing(grid, rng)
                c = 0.6 * build_upper(h).implied_c
            sol = solve(h, c)
            diff, reseeded = _oracle_diff(sol, h, c, idx)
            idx += 1
            reseeds += reseeded
            worst = max(worst, diff)
            assert diff <= 1e-6, (regime, i, diff)
    return (f"90 instances (30/regime) agree to sup-err {worst:.2e} <= 1e-6; "
            f"{reseeds} oracle runs reseeded beside the solver root")


def test_criterion_05_oracle_equivalence():
    run_criterion("C05 oracle equivalence", _c05)


# ---------------------------------------------------------------------------
# 6. manufactured-solution convergence at order 2


def _c06():
    # h is manufactured from u* = cos(pi s); c = -12 keeps h <= 0 so the
    # negative-regime root is unique and the solver's branch is u*'s branch
    ratios = []
    for c in (0.0, 1.0, -12.0):
        errs = []
        for cells in (64, 128, 256):
            grid = make_single(cells=cells)

            def profile(s, c=c):
                return (c + np.pi**2 * np.cos(np.pi * s)) * np.exp(-np.cos(np.pi * s))

            h = sample_function(grid, {"e1": profile})
            sol = solve(h, c, tol=1e-9)
            ustar = np.cos(np.pi * grid.edge_coords("e1"))
            errs.append(float(np.max(np.abs(sol.u.edge_values("e1") - ustar))))
        for fine in range(1, 3):
            ratio = errs[fine - 1] / errs[fine]
            ratios.append(ratio)
            assert 3.5 <= ratio <= 4.5, (c, errs)
    return (f"u* = cos(pi s), c in (0, 1, -12): halving ratios "
            f"{', '.join(f'{r:.2f}' for r in ratios)} all in [3.5, 4.5]")


def test_criterion_06_manufactured_convergence():
    run_criterion("C06 manufactured convergence", _c06)


# ---------------------------------------------------------------------------
# 7. threshold behavior: h <= 0 vs sign-changing families


def _star3_sign_changing(cells=24):
    grid = make_star3(cells=cells)
    profiles = {
        eid: (lambda s, l=length: np.cos(np.pi * s / l) - 0.15)
        for eid, length in (("e1", 1.0), ("e2", 1.5), ("e3", 0.7))
    }
    return sample_function(grid, profiles)


def _c07():
    rng = np.random.default_rng(7001)
    # h <= 0 families: threshold at minus infinity, any c < 0 solves
    for h in (constant(make_star3(cells=32), -1.0),
              random_h_nonpositive(make_theta(cells=24), rng)):
        est = estimate_threshold(h)
        assert est.minus_infinity and est.c_lo is None and est.c_hi is None
        for c in (-1.0, -10.0, -100.0):
            sol = solve_negative(h, c)
            assert sol.report.final_residual <= 1e-8 * (1.0 + abs(c))

    # sign-changing families: finite bracket under the analytic bound,
    # edges behave, and the oracle's fold point sits inside
    details = []
    for h, bt in ((sample_function(make_single(cells=64),
                                   {"e1": lambda s: np.cos(np.pi * s) - 0.1}), 2e-5),
                  (_star3_sign_changing(), 5e-5)):
        est = estimate_threshold(h, bracket_tol=bt)
        assert not est.minus_infinity
        assert est.c_lo < est.c_hi < 0.0
        a = build_upper(h).a
        analytic = 0.5 * a * integrate(h)
        assert est.c_hi <= analytic, (est.c_hi, analytic)
        solve_negative(h, est.c_hi)
        try:
            solve_negative(h, est.c_lo)
            raise AssertionError("bracket bottom unexpectedly solved")
        except (NoUpperSolutionFound, RuntimeError):
            pass
        lo, hi = oracle_fold(h, est.c_hi, 2.0 * est.c_lo, gap=bt)
        fold = 0.5 * (lo + hi)
        assert est.c_lo - 2.0 * bt <= fold <= est.c_hi + 2.0 * bt, (est, fold)
        details.append(f"bracket [{est.c_lo:.6g}, {est.c_hi:.6g}] holds fold {fold:.6g}")
    return ("2 nonpositive families at -inf solve at c in (-1,-10,-100); "
            + "; ".join(details))


def test_criterion_07_threshold():
    run_criterion("C07 threshold behavior", _c07)


# ---------------------------------------------------------------------------
# 8. critical case: the fold of the branch, with bounded norms on its approach


def _c08():
    grid = make_single(cells=128)
    h = sample_function(grid, {"e1": lambda s: np.cos(np.pi * s) - 0.1})
    bt = 1e-5
    est = estimate_threshold(h, bracket_tol=bt)
    sol = solve_critical(h, est)
    assert sol.report.status == "Converged"
    assert sol.report.method == "critical-fold"
    approach = sol.report.details["approach"]
    assert len(approach) >= 1
    h1s = [r["h1_norm"] for r in approach]
    assert max(h1s) / min(h1s) <= 10.0, h1s
    for r in approach:
        assert r["residual"] <= 1e-8 * (1 + abs(r["c"])), r
    c_mid, c_final = sol.report.details["c_midpoint"], sol.report.details["c_final"]
    assert est.c_lo <= c_final <= est.c_hi
    assert abs(c_final - c_mid) <= 0.01 * (est.c_hi - est.c_lo)
    defect = abs(integrate(GridFunction(grid, h.values * np.exp(sol.u.values)))
                 - c_mid * grid.total_length)
    assert defect <= bt * grid.total_length, (defect, bt)
    assert abs(defect - sol.report.identity_checks["mass_defect_at_midpoint"]) <= 1e-12
    return (f"{len(approach)} approach points, H1 spread {max(h1s)/min(h1s):.2f} <= 10, "
            f"midpoint mass defect {defect:.2e} <= {bt:g}|G|")


def test_criterion_08_critical_case():
    run_criterion("C08 critical case", _c08)


# ---------------------------------------------------------------------------
# 9. Poincare and Moser inequality suites on random functions


def _c09():
    rng = np.random.default_rng(9001)
    for i in range(200):
        grid = random_grid(rng)
        if i % 3 == 2:
            f = GridFunction(grid, rng.standard_normal(grid.ndof))
        else:
            f = smooth_random(grid, rng)
        v = f.values - integrate(f) / grid.total_length
        v = v - (grid.weights @ v) / grid.total_length
        f = GridFunction(grid, v)
        rep = check_poincare(f)
        assert rep.holds_pointwise and rep.holds_l2, (i, rep)
        beta = float(rng.uniform(-2.0, 3.0))
        delta = h1_seminorm(f) ** 2 * float(rng.uniform(1.0, 4.0)) + 1e-12
        mos = check_moser(f, beta, delta)
        assert mos.holds, (i, mos)
    return "200 random mean-zero functions: Poincare and Moser bounds all hold"


def test_criterion_09_inequalities():
    run_criterion("C09 inequality suites", _c09)


# ---------------------------------------------------------------------------
# 10. finite-difference gradient checks for all three functionals


def _c10():
    rng = np.random.default_rng(10001)
    worst = 0.0
    for functional in ("zero", "positive", "critical"):
        for i in range(20):
            grid = random_grid(rng, cells_lo=16, cells_hi=32)
            u = smooth_random(grid, rng)
            phi = smooth_random(grid, rng)
            h = smooth_random(grid, rng)
            c = float(rng.uniform(-2.0, 2.0))
            rep = fd_gradient_check(functional, u, phi, 1e-6, h=h, c=c)
            worst = max(worst, rep.rel_error)
            assert rep.rel_error <= 1e-6, (functional, i, rep)
    return f"3 functionals x 20 points: worst rel-err {worst:.2e} <= 1e-6"


def test_criterion_10_gradient_checks():
    run_criterion("C10 gradient checks", _c10)
