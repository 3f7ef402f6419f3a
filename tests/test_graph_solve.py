"""The K + diag(d) primitive: interior tridiagonal plus vertex Schur complement."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import ldl
from scipy.sparse.linalg import spsolve

from kwnet import (
    GridFunction,
    SolveCounts,
    ThresholdEstimate,
    build_graph,
    build_grid,
    build_upper,
    estimate_threshold,
    monotone_iterate,
    sample_function,
    solve_critical,
    solve_negative,
    solve_poisson_meanzero,
    solve_positive,
    solve_shifted,
    solve_zero,
)
from kwnet import assembly
from kwnet.assembly import LINEAR_RTOL
from kwnet.errors import LinearSolveFailure
from kwnet.solvers import _damped_newton, _Workspace
from helpers import (
    make_single,
    make_star3,
    make_theta,
    ordered_pair,
    random_grid,
    random_h_positive_somewhere,
    random_tree_grid,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _dense(grid, d):
    return grid.stiffness.toarray() + np.diag(d)


def _assert_matches(x, ref, cond):
    # backward-stable elimination: forward error bounded by cond * eps
    scale = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(x - ref))) <= 1e-13 * cond * scale


@settings(max_examples=40, deadline=None)
@given(seed=seeds, spread=st.floats(0.1, 80.0))
def test_solve_matches_dense_for_indefinite_shift(seed, spread):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, cells_lo=2, cells_hi=48)
    # the shape of a Newton Jacobian K - M_{h e^u}: weights times a sign-changing factor
    d = grid.weights * rng.uniform(-spread, spread, grid.ndof)
    A = _dense(grid, d)
    cond = np.linalg.cond(A)
    assume(cond <= 1e9)  # nearer to singular, forward errors say little
    b = rng.standard_normal((grid.ndof, 2))
    lu = grid.operators.factor(d)
    for col in b.T:
        _assert_matches(lu.solve(col), np.linalg.solve(A, col), cond)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_bordered_solve_matches_dense(seed):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, cells_lo=2, cells_hi=48)
    w = grid.weights
    n = grid.ndof
    B = np.block([[grid.stiffness.toarray(), w[:, None]], [w[None, :], np.zeros((1, 1))]])
    b = rng.standard_normal(n + 1)
    x = grid.operators.factor(np.zeros(n), border=w).solve(b)
    _assert_matches(x, np.linalg.solve(B, b), np.linalg.cond(B))


@pytest.mark.parametrize("grid", [
    make_single(cells=2),
    make_theta(cells=2),
    make_theta(cells=9),
    # parallel edges with opposite orientations share one Schur entry
    build_grid(build_graph(["a", "b"], [("e1", "a", "b", 1.0), ("e2", "b", "a", 0.7)]),
               {"e1": 3, "e2": 2}),
], ids=["edge-2-cells", "theta-2-cells", "theta", "antiparallel"])
def test_solve_edge_cases_match_dense(grid):
    rng = np.random.default_rng(5)
    d = grid.weights * rng.uniform(-20.0, 20.0, grid.ndof)
    A = _dense(grid, d)
    b = rng.standard_normal(grid.ndof)
    _assert_matches(grid.operators.factor(d).solve(b), np.linalg.solve(A, b), np.linalg.cond(A))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, spread=st.floats(0.1, 200.0), two_by_two=st.booleans())
def test_negative_eigenvalues_match_dense(seed, spread, two_by_two):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, cells_lo=2, cells_hi=48)
    d = grid.weights * rng.uniform(-spread, spread, grid.ndof)
    if two_by_two:
        # vertex shifts that zero the diagonal of the vertex Schur complement
        # leave its LDL^T no 1 x 1 pivot to start with: D gets 2 x 2 blocks
        nv = len(grid.graph.vertex_ids)
        d[:nv] = 0.0
        A = _dense(grid, d)
        s0 = A[:nv, :nv] - A[:nv, nv:] @ np.linalg.solve(A[nv:, nv:], A[nv:, :nv])
        d[:nv] = -np.diag(s0)
        _, blocks, _ = ldl(s0 - np.diag(np.diag(s0)))
        assert np.any(np.diagonal(blocks, 1) != 0.0)
    eig = np.linalg.eigvalsh(_dense(grid, d))
    assume(float(np.min(np.abs(eig))) > 1e-9 * float(np.max(np.abs(eig))))
    assert grid.operators.factor(d).negative_eigenvalues() == int(np.sum(eig < 0.0))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_superlu_path_matches_dense(seed):
    # 81 vertices: above the dense-LU limit, S goes to SuperLU
    grid = random_tree_grid(80, seed, cells={f"e{j}": 4 + j % 5 for j in range(80)})
    assert not grid.operators.dense
    rng = np.random.default_rng(seed)
    n = grid.ndof
    d = grid.weights * rng.uniform(-20.0, 20.0, n)
    A = _dense(grid, d)
    b = rng.standard_normal(n)
    lu = grid.operators.factor(d)
    _assert_matches(lu.solve(b), np.linalg.solve(A, b), np.linalg.cond(A))
    eig = np.linalg.eigvalsh(A)
    assert float(np.min(np.abs(eig))) > 1e-9 * float(np.max(np.abs(eig)))
    assert lu.negative_eigenvalues() == int(np.sum(eig < 0.0)) > 0

    w = grid.weights
    B = np.block([[grid.stiffness.toarray(), w[:, None]], [w[None, :], np.zeros((1, 1))]])
    b = rng.standard_normal(n + 1)
    x = grid.operators.factor(np.zeros(n), border=w).solve(b)
    _assert_matches(x, np.linalg.solve(B, b), np.linalg.cond(B))


@pytest.mark.parametrize("superlu", [False, True], ids=["dense", "superlu"])
def test_singular_schur_complement_is_a_failure(monkeypatch, superlu):
    if superlu:
        monkeypatch.setattr(assembly, "_DENSE_ROWS", 0)
    # with d = 0 the two-cell edge leaves S = [[1, -1], [-1, 1]] exactly
    grid = make_single(cells=2)
    assert grid.operators.dense is not superlu
    with pytest.raises(LinearSolveFailure, match="vertex Schur complement"):
        grid.operators.factor(np.zeros(grid.ndof))


def _star(n_edges):
    vs = ["hub"] + [f"v{i}" for i in range(n_edges)]
    es = [(f"e{i}", "hub", f"v{i}", 0.5 + (i % 7) / 7.0) for i in range(n_edges)]
    return build_grid(build_graph(vs, es), {f"e{i}": 2 + i % 5 for i in range(n_edges)})


@pytest.mark.parametrize("bordered", [False, True], ids=["plain", "bordered"])
@pytest.mark.parametrize("n_edges", [5, 70], ids=["dense", "superlu"])
def test_filled_schur_complement_matches_dense(n_edges, bordered):
    # solution checks see small errors in S only through its conditioning,
    # so compare S itself with A_RR - A_RI A_II^-1 A_IR, where R is the
    # vertex rows (and the border row) and I the edge interiors
    grid = _star(n_edges)
    ops = grid.operators
    assert ops.dense is (n_edges == 5)
    rng = np.random.default_rng(n_edges)
    n, nv = grid.ndof, ops.nv
    d = grid.weights * rng.uniform(-5.0, 20.0, n)
    A = _dense(grid, d)
    border = None
    if bordered:
        border = grid.weights * rng.uniform(0.5, 2.0, n)
        A = np.block([[A, border[:, None]], [border[None, :], np.zeros((1, 1))]])
    r, i = np.r_[:nv, n:len(A)], np.arange(nv, n)
    ref = A[np.ix_(r, r)] - A[np.ix_(r, i)] @ np.linalg.solve(A[np.ix_(i, i)], A[np.ix_(i, r)])
    lu = ops.factor(d, border)
    s = lu._s if ops.dense else (ops._bordered if bordered else ops._schur)[0].toarray()
    assert float(np.max(np.abs(s - ref))) <= 1e-12 * float(np.max(np.abs(ref)))


def test_dense_and_superlu_paths_agree(monkeypatch):
    grid = make_theta(cells=9)
    dense = grid.operators  # built, and its path chosen, before the patch
    monkeypatch.setattr(assembly, "_DENSE_ROWS", 0)
    superlu = make_theta(cells=9).operators
    assert dense.dense and not superlu.dense
    rng = np.random.default_rng(9)
    n, w = grid.ndof, grid.weights
    d = w * rng.uniform(-20.0, 20.0, n)
    b = rng.standard_normal(n + 1)
    x, ref = (ops.factor(d).solve(b[:n]) for ops in (dense, superlu))
    _assert_matches(x, ref, np.linalg.cond(_dense(grid, d)))
    x, ref = (ops.factor(np.zeros(n), border=w).solve(b) for ops in (dense, superlu))
    B = np.block([[grid.stiffness.toarray(), w[:, None]], [w[None, :], np.zeros((1, 1))]])
    _assert_matches(x, ref, np.linalg.cond(B))
    assert dense.factor(d).negative_eigenvalues() == superlu.factor(d).negative_eigenvalues()


def test_solve_on_thousand_edge_star():
    vs = ["hub"] + [f"v{i}" for i in range(1000)]
    es = [(f"e{i}", "hub", f"v{i}", 0.5 + (i % 7) / 7.0) for i in range(1000)]
    grid = build_grid(build_graph(vs, es), 8)
    rng = np.random.default_rng(11)
    d = grid.weights * rng.uniform(0.5, 2.0, grid.ndof)
    b = rng.standard_normal(grid.ndof)
    x = grid.operators.factor(d).solve(b)
    ref = spsolve((grid.stiffness + sparse.diags(d)).tocsc(), b)
    assert float(np.max(np.abs(x - ref))) <= 1e-10 * float(np.max(np.abs(ref)))


def _zero_pivot_problem():
    # two cells on the unit edge: the one interior node has K_ii = 2/h = 4 and
    # weight h = 0.5, so h e^u = 8 there makes K_ii - w h e^u exactly zero
    grid = make_single(cells=2)
    return grid, GridFunction(grid, [1.0, 1.0, 8.0])


def test_zero_interior_pivot_is_a_failure():
    grid, h = _zero_pivot_problem()
    d = -(grid.weights * h.values)
    with pytest.raises(LinearSolveFailure, match="zero pivot"):
        grid.operators.factor(d)


def test_shifted_and_flux_solves_on_a_fine_edge():
    grid = make_single(cells=100_000)
    w = grid.weights
    k = sample_function(grid, lambda s: 1.0 + math.sin(3.0 * s) ** 2)
    rhs = sample_function(grid, lambda s: math.cos(2.0 * math.pi * s) + s)
    u = solve_shifted(grid, k, rhs).values
    A = grid.stiffness + sparse.diags(w * k.values)
    row_norm = float(np.max(abs(A).sum(axis=1)))
    b = -(w * rhs.values)
    scale = max(float(np.max(np.abs(b))), row_norm * float(np.max(np.abs(u))))
    assert float(np.max(np.abs(A @ u - b))) <= LINEAR_RTOL * scale * 10.0

    flux = GridFunction(grid, rhs.values - float(w @ rhs.values) / grid.total_length)
    m = solve_poisson_meanzero(grid, flux).values
    b = -(w * flux.values)
    row_norm = float(np.max(abs(grid.stiffness).sum(axis=1))) + float(np.max(w))
    scale = max(float(np.max(np.abs(b))), row_norm * float(np.max(np.abs(m))), 1.0)
    assert float(np.max(np.abs(grid.stiffness @ m - b))) <= LINEAR_RTOL * scale * 100.0
    assert abs(float(w @ m)) <= 1e-12 * float(w @ np.abs(m))


def test_reports_count_factorizations():
    rng = np.random.default_rng(2)
    grid = make_single(cells=48)
    sol = solve_positive(random_h_positive_somewhere(grid, rng), 0.5)
    assert sol.report.details["factorizations"] >= 1  # the Riesz map


def test_counts_accumulate_across_calls_and_failures():
    # the grid's operators count the work of every call, failed ones too
    grid = make_single(cells=96)
    ops = grid.operators
    h = sample_function(grid, lambda s: math.cos(math.pi * s) - 0.1)
    c_certified = build_upper(h).implied_c
    start = ops.factorizations
    sol = solve_negative(h, c_certified)
    assert sol.report.details["factorizations"] == ops.factorizations - start > 0
    start = ops.factorizations
    with pytest.raises(RuntimeError):
        solve_negative(h, 4.0 * c_certified)  # far below the fold
    assert ops.factorizations > start
    # just above the fold the Newton tail's Jacobian is nearly singular
    c_star = estimate_threshold(h).details["c_star"]
    start = ops.factorizations
    made = [solve_negative(h, c_star * (1.0 - gap)).report.details["factorizations"]
            for gap in (1.5e-7, 2e-7, 3e-7, 4e-7)]
    assert ops.factorizations - start == sum(made)


def _backward_error_ok(A, x, b, factor=16.0):
    # ||Ax - b|| <= C eps (|| |A| |x| || + ||b||), all in the max norm
    resid = float(np.max(np.abs(A @ x - b)))
    scale = float(np.max(abs(A) @ np.abs(x))) + float(np.max(np.abs(b)))
    return resid <= factor * np.finfo(float).eps * scale


@pytest.mark.parametrize("grid_kind, d_kind, bordered, pivoted", [
    ("theta", "positive", False, False),
    ("theta", "indefinite", False, True),
    ("theta", "zero", True, False),
    ("theta", "indefinite", True, True),
    ("star", "positive", False, False),
    ("star", "indefinite", True, True),
], ids=["ldlt", "pivoted", "bordered", "bordered-pivoted", "superlu", "superlu-pivoted"])
def test_interior_paths_are_backward_stable(grid_kind, d_kind, bordered, pivoted):
    grid = make_theta(cells=9) if grid_kind == "theta" else _star(70)
    ops = grid.operators
    assert ops.dense is (grid_kind == "theta")
    rng = np.random.default_rng(17)
    n, nv, w = grid.ndof, ops.nv, grid.weights
    d = {"zero": np.zeros(n), "positive": w * rng.uniform(0.5, 2.0, n)}.get(d_kind)
    if d is None:
        # a sign-changing Newton-like shift, and one interior row made
        # negative outright, so that T is indefinite
        d = w * rng.uniform(-5.0, 20.0, n)
        d[nv + 3] = -3.0 * ops.kdiag[nv + 3]
    A = grid.stiffness + sparse.diags(d)
    border = w * rng.uniform(0.5, 2.0, n) if bordered else None
    if bordered:
        col = sparse.csr_matrix(border[:, None])
        A = sparse.bmat([[A, col], [col.T, None]])
    A = A.tocsc()
    lu = ops.factor(d, border)
    assert lu.pivoted is pivoted
    for b in rng.standard_normal((3, A.shape[0])):
        x = lu.solve(b)
        assert _backward_error_ok(A, spsolve(A, b), b)  # the bound a sparse LU meets
        assert _backward_error_ok(A, x, b)


def _record_pivoting(monkeypatch):
    flags = []
    factor = assembly.GridOperators.factor

    def recorded(self, d, border=None):
        lu = factor(self, d, border)
        flags.append(lu.pivoted)
        return lu

    monkeypatch.setattr(assembly.GridOperators, "factor", recorded)
    return flags


def test_definite_solves_never_pivot(monkeypatch):
    flags = _record_pivoting(monkeypatch)
    grid = make_single(cells=48)
    rhs = sample_function(grid, lambda s: math.cos(3.0 * s))
    solve_shifted(grid, sample_function(grid, lambda s: 1.0 + s), rhs)
    flux = GridFunction(grid, rhs.values - float(grid.weights @ rhs.values) / grid.total_length)
    solve_poisson_meanzero(grid, flux)
    assert flags == [False, False]
    h = sample_function(grid, lambda s: math.cos(math.pi * s) - 0.1)
    sol = solve_negative(h, build_upper(h).implied_c)
    assert sol.report.method == "monotone(certified)"
    assert sol.report.details["pivoted_interiors"] == 0
    assert len(flags) > 2 and not any(flags)


def test_damped_newton_ends_at_a_zero_pivot():
    # Newton's first Jacobian has the zero pivot: that one failed
    # factorization ends the finish, with no root and no other factorization
    grid, h = _zero_pivot_problem()
    ws = _Workspace(h)
    assert _damped_newton(ws, -1.0, np.zeros(grid.ndof)) is None
    assert (ws.counts.factorizations, ws.counts.pivoted_interiors) == (1, 1)


def test_a_failed_pivoted_interior_is_counted():
    # dpttrf meets the zero pivot, and dgttrf fails on it too
    grid, h = _zero_pivot_problem()
    ws = _Workspace(h)
    with pytest.raises(LinearSolveFailure, match="zero pivot"):
        ws.factor(ws.jacobian_shift(np.zeros(grid.ndof)))
    assert ws.counts == SolveCounts(factorizations=1, pivoted_interiors=1)
    ws.factor(ws.jacobian_shift(np.zeros(grid.ndof)) + 1.0)
    assert ws.counts == SolveCounts(factorizations=2, pivoted_interiors=1)


def test_newton_from_an_overflowing_seed_returns_none():
    # e^800 overflows: the first residual is not finite, and nothing is factored
    h = sample_function(make_star3(cells=16), lambda s: math.cos(math.pi * s) + 0.3)
    ws = _Workspace(h)
    assert _damped_newton(ws, 0.5, np.full(h.grid.ndof, 800.0)) is None
    assert ws.counts.factorizations == 0


def test_a_failed_checked_solve_ends_the_newton_finish(monkeypatch):
    # a Newton step whose backward-error check fails ends the finish: no
    # other factorization, and no root
    h = sample_function(make_single(cells=16), lambda s: math.cos(math.pi * s) - 0.1)
    ws = _Workspace(h)
    factor = ws.factor

    def failing(d, border=None):
        lu = factor(d, border)

        def solve_checked(b):
            raise LinearSolveFailure("the step fails its backward-error check")

        lu.solve_checked = solve_checked
        return lu

    monkeypatch.setattr(ws, "factor", failing)
    assert _damped_newton(ws, -0.01, np.zeros(h.grid.ndof)) is None
    assert ws.counts.factorizations == 1


def _record_factorizations(monkeypatch):
    """One entry per call of GridOperators.factor, and one per call of the
    pivoted LU dgttrf an interior falls back to, the calls that raise
    included."""
    made, pivoted = [], []
    factor, dgttrf = assembly.GridOperators.factor, assembly.lapack.dgttrf

    def recorded(self, d, border=None):
        made.append(1)
        return factor(self, d, border)

    def recorded_pivot(*args, **kwargs):
        pivoted.append(1)
        return dgttrf(*args, **kwargs)

    monkeypatch.setattr(assembly.GridOperators, "factor", recorded)
    monkeypatch.setattr(assembly.lapack, "dgttrf", recorded_pivot)
    return made, pivoted



def _cos_edge(cells=96, shift=0.1):
    return sample_function(make_single(cells=cells), lambda s: math.cos(math.pi * s) - shift)


def _critical(h):
    # a bracket made by hand around the default estimate's c* is walked
    fold = -0.04977952371251541
    est = ThresholdEstimate(minus_infinity=False, c_lo=fold - 2e-6, c_hi=fold + 2e-6,
                            analytic_upper_bound=None)
    return lambda: solve_critical(h, est)


def _monotone(h):
    c = 0.5 * build_upper(h).implied_c
    lo, up = ordered_pair(h, c)  # its flux solve is made outside the call
    return lambda: monotone_iterate(h, c, lo, up)


def _negative(scale):
    def route(h):
        c = scale * build_upper(h).implied_c
        return lambda: solve_negative(h, c)
    return route


# each route: h -> the call whose report is checked
COUNTED = {
    "zero": lambda h: lambda: solve_zero(h),
    # at c = 20 a Newton Jacobian of the finish pivots in its interior
    "positive": lambda h: lambda: solve_positive(h, 20.0),
    "certified": _negative(0.5),
    "continuation": _negative(1.5),
    "h<=0": lambda h: lambda: solve_negative(GridFunction(h.grid, h.values - 1.0), -0.3),
    "monotone": _monotone,
    "threshold": lambda h: lambda: estimate_threshold(h),
    "critical": _critical,
}


@pytest.mark.parametrize("name", ["zero", "positive", "certified", "continuation", "h<=0",
                                  "critical"])
def test_every_detail_reaches_the_json_report(name):
    # to_dict passes every detail on: one that json cannot write fails
    # json.dumps loudly instead of leaving the report
    report = COUNTED[name](_cos_edge())().report
    assert json.loads(json.dumps(report.to_dict()))["details"].keys() == report.details.keys()


@pytest.mark.parametrize("name", list(COUNTED))
def test_counts_are_every_factorization_made(monkeypatch, name):
    call = COUNTED[name](_cos_edge())
    made, pivoted = _record_factorizations(monkeypatch)
    result = call()
    details = getattr(result, "report", result).details
    assert details["factorizations"] == len(made) > 0
    assert details["pivoted_interiors"] == len(pivoted) >= (name == "positive")
