"""Stiffness/mass assembly, linear solves, residual evaluation."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.sparse.linalg import eigsh

from kwnet import (
    GridFunction,
    apply_residual,
    assemble_mass,
    assemble_stiffness,
    build_graph,
    build_grid,
    build_upper,
    constant,
    integrate,
    sample_function,
    solve_poisson_meanzero,
    solve_shifted,
)
from kwnet import assembly
from kwnet.assembly import GridOperators
from kwnet.errors import GridMismatch, IncompatibleRHS, LinearSolveFailure, NonpositiveShift
from helpers import (
    assert_stiffness_matches,
    coo_stiffness,
    make_path3,
    make_single,
    make_star3,
    make_theta,
    make_triangle,
    random_tree_grid,
    star_grid,
)


def test_stiffness_symmetric_kernel_constants():
    grid = make_star3(cells=16)
    K = assemble_stiffness(grid)
    assert (K - K.T).nnz == 0 or np.max(np.abs((K - K.T).data)) < 1e-14
    ones = np.ones(grid.ndof)
    assert np.max(np.abs(K @ ones)) < 1e-12
    # positive semidefinite with a one-dimensional kernel on a connected graph
    vals = eigsh(K.asfptype(), k=2, sigma=-1e-9, return_eigenvectors=False)
    vals = np.sort(vals)
    assert abs(vals[0]) < 1e-10
    assert vals[1] > 1e-8


def test_stiffness_offdiagonals_nonpositive():
    # M-matrix sign pattern is what makes the monotone machinery work
    grid = make_theta(cells=12)
    K = assemble_stiffness(grid).tocoo()
    off = K.data[K.row != K.col]
    assert np.all(off <= 0.0)


def test_mass_matches_grid_weights():
    grid = make_triangle(cells=9)
    M = assemble_mass(grid)
    assert np.allclose(M.diagonal(), grid.weights)
    assert M.nnz == grid.ndof


def test_dirichlet_energy_via_stiffness():
    grid = make_single(cells=13, length=2.0)
    f = sample_function(grid, lambda s: 0.75 * s)
    K = assemble_stiffness(grid)
    energy = float(f.values @ (K @ f.values))
    assert energy == pytest.approx(0.75**2 * 2.0, rel=1e-13)


def test_solve_shifted_manufactured():
    # d2u - u = -(1 + 4 pi^2) cos(2 pi s) has the Kirchhoff-compatible
    # solution cos(2 pi s) on the unit edge (zero end slopes)
    grid = make_single(cells=256)
    k = constant(grid, 1.0)
    exact = sample_function(grid, lambda s: math.cos(2 * math.pi * s))
    rhs = GridFunction(grid, -(1 + 4 * math.pi**2) * exact.values)
    u = solve_shifted(grid, k, rhs)
    assert np.max(np.abs(u.values - exact.values)) < 2e-4  # O(h^2)


def test_shifted_solve_rejects_nonpositive_shift():
    grid = make_single(cells=8)
    with pytest.raises(NonpositiveShift):
        solve_shifted(grid, constant(grid, 0.0), constant(grid, 1.0))


def test_shifted_solve_rejects_a_shift_on_another_grid():
    grid = make_single(cells=8)
    with pytest.raises(GridMismatch, match="^k lives on a different grid$"):
        solve_shifted(grid, constant(make_single(cells=9), 1.0), constant(grid, 1.0))


def test_shifted_factor_solves_many_right_hand_sides():
    # one factorization of K + M_k serves every sweep of a shift
    grid = make_star3(cells=8)
    lu = grid.operators.factor(grid.weights * 2.0)
    b = np.zeros(grid.ndof)
    b[0] = 1.0
    u1 = lu.solve_checked(b)
    u2 = lu.solve_checked(2.0 * b)
    assert np.allclose(2.0 * u1, u2, rtol=1e-12, atol=1e-14)


def test_shifted_solve_inverse_positive():
    # nonpositive rhs -> nonnegative solution (discrete maximum principle)
    grid = make_triangle(cells=20)
    rng = np.random.default_rng(7)
    k = GridFunction(grid, 0.5 + rng.uniform(0.0, 2.0, grid.ndof))
    for _ in range(5):
        u = solve_shifted(grid, k, GridFunction(grid, -rng.uniform(0.0, 1.0, grid.ndof)))
        assert float(np.min(u.values)) >= -1e-13


def test_checked_solve_refuses_a_large_residual(monkeypatch):
    grid = make_single(cells=8)
    lu = grid.operators.factor(grid.weights)
    b = grid.weights.copy()
    x = lu.solve_checked(b)
    x[3] += 1e-6  # a wrong solution, far above roundoff
    monkeypatch.setattr(lu, "solve", lambda b: x)
    with pytest.raises(LinearSolveFailure, match="residual"):
        lu.solve_checked(b)


def test_poisson_meanzero_roundtrip():
    grid = make_star3(cells=48)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal(grid.ndof)
    f = GridFunction(grid, raw - (grid.weights @ raw) / grid.total_length)
    m = solve_poisson_meanzero(grid, f)
    assert abs(integrate(m)) < 1e-10 * (1 + float(np.max(np.abs(m.values))))
    K = assemble_stiffness(grid)
    resid = K @ m.values + grid.weights * f.values  # weak form: K m = -M f
    assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.max(np.abs(f.values)))


def test_poisson_meanzero_requires_compatible_data():
    grid = make_single(cells=16)
    with pytest.raises(IncompatibleRHS):
        solve_poisson_meanzero(grid, constant(grid, 1.0))


def test_apply_residual_zero_at_manufactured_root():
    grid = make_single(cells=32)
    u = sample_function(grid, lambda s: 0.3 * math.cos(math.pi * s))
    K = assemble_stiffness(grid)
    c = 0.7
    hv = (c + (K @ u.values) / grid.weights) * np.exp(-u.values)
    rep = apply_residual(u, GridFunction(grid, hv), c)
    assert rep.weak_residual_norm < 1e-12
    assert rep.residual.shape == (grid.ndof,)


def test_apply_residual_grid_mismatch():
    u = constant(make_single(cells=8), 0.0)
    h = constant(make_single(cells=9), -1.0)
    with pytest.raises(GridMismatch):
        apply_residual(u, h, 0.5)


def test_residual_sign_for_constants():
    # r/w = c - h e^u for constant u: the defect the pair constructions rely on
    grid = make_triangle(cells=10)
    u = constant(grid, 0.0)
    h = constant(grid, -2.0)
    rep = apply_residual(u, h, -1.0)
    interior = rep.residual / grid.weights
    assert np.allclose(interior, -1.0 + 2.0, rtol=0, atol=1e-11)


# ----------------------------------------------------------------------
# K written directly as CSR, against the COO build it replaced
# ----------------------------------------------------------------------

GRIDS = {
    "single": lambda: make_single(cells=64),
    "single-2": lambda: make_single(cells=2),
    "path3": lambda: make_path3(cells=3),
    "star3": lambda: make_star3(cells=16),
    "triangle": lambda: make_triangle(cells=9),
    "theta": lambda: make_theta(cells=24),
    "theta-2": lambda: make_theta(cells=2),
    **{f"tree60-{seed}": (lambda seed=seed: random_tree_grid(60, seed)) for seed in range(4)},
    "tree300": lambda: random_tree_grid(300, seed=7),
    "star1000": lambda: star_grid(1000),
}


@pytest.mark.parametrize("name", GRIDS)
def test_direct_csr_matches_the_coo_oracle(name):
    grid = GRIDS[name]()
    K = assemble_stiffness(grid)
    assert K.has_canonical_format and K.has_sorted_indices
    assert_stiffness_matches(K, coo_stiffness(grid), grid)
    # the operators read K's diagonals and row sums off its CSR arrays
    nv = len(grid.graph.vertex_ids)
    ops = GridOperators(grid)
    assert np.array_equal(ops.kdiag, K.diagonal())
    assert np.array_equal(ops.abs_row_sum, np.asarray(abs(K).sum(axis=1)).ravel())
    assert np.array_equal(ops.t_off, np.concatenate((K.diagonal(1)[nv:], [0.0, 0.0])))


def test_vertex_diagonal_is_summed_in_edge_order():
    grid = random_tree_grid(300, seed=11)
    nv = len(grid.graph.vertex_ids)
    degree = np.bincount(grid.node_dof[grid.end_nodes], minlength=nv)
    assert degree.max() >= 9
    expect = [0.0] * nv
    for j, e in enumerate(grid.graph.edges):
        for v in (e.tail, e.head):
            expect[grid.vertex_dof(v)] += 1.0 / float(grid.edge_h[j])
    assert np.array_equal(assemble_stiffness(grid).diagonal()[:nv], expect)


def test_checked_bordered_solve_checks_every_row(monkeypatch):
    # [[K, w], [w^T, 0]]: matvec is the bordered product, and a wrong x is
    # refused whether it breaks the K rows or only the border row
    grid = make_star3(cells=8)
    w, n = grid.weights, grid.ndof
    lu = grid.operators.factor(np.zeros(n), border=w)
    rng = np.random.default_rng(5)
    raw = rng.standard_normal(n)
    b = np.append(raw - w * (w @ raw) / (w @ w), 0.0)
    x = lu.solve_checked(b)
    dense = np.block([[grid.stiffness.toarray(), w[:, None]], [w[None, :], np.zeros((1, 1))]])
    assert np.allclose(lu.matvec(x), dense @ x, rtol=0.0, atol=1e-13)
    # a constant added to u leaves K u alone and moves only w.u
    for wrong in (x + np.append(np.full(n, 1e-6), 0.0), x + np.append(np.zeros(n), 1e-6)):
        monkeypatch.setattr(lu, "solve", lambda b, wrong=wrong: wrong)
        with pytest.raises(LinearSolveFailure, match="residual"):
            lu.solve_checked(b)


def test_poisson_meanzero_refuses_a_wrong_bordered_solve(monkeypatch):
    grid = make_star3(cells=16)
    raw = np.random.default_rng(3).standard_normal(grid.ndof)
    f = GridFunction(grid, raw - (grid.weights @ raw) / grid.total_length)
    solve_poisson_meanzero(grid, f)
    solve = assembly.KPlusDiag.solve
    monkeypatch.setattr(assembly.KPlusDiag, "solve", lambda self, b: solve(self, b) + 1e-6)
    with pytest.raises(LinearSolveFailure, match="residual"):
        solve_poisson_meanzero(grid, f)


# ----------------------------------------------------------------------
# per-DOF arrays: the cell arrays on first use, in-place arithmetic, and the
# memory the linear primitives take on a 1e5-cell edge
# ----------------------------------------------------------------------

CELL_ARRAYS = ("cell_tail", "cell_head", "cell_h")


@pytest.fixture(scope="module")
def fine_edge():
    """A 1e5-cell edge with the inputs of the three linear primitives."""
    grid = build_grid(build_graph(["p", "q"], [("e1", "p", "q", 1.0)]), 100_000)
    s = grid.node_s
    k = sample_function(grid, {"e1": 1.0 + 0.3 * np.sin(3.0 * s) ** 2})
    rhs = sample_function(grid, {"e1": 0.7 * np.cos(2.0 * np.pi * s) + 0.3 * s})
    flux = GridFunction(grid, rhs.values - (grid.weights @ rhs.values) / grid.total_length)
    h = sample_function(grid, {"e1": np.cos(np.pi * s) - 0.1})
    return grid, k, rhs, flux, h


@pytest.mark.parametrize("name", ["single-2", "theta", "tree60-0", "star1000"])
def test_cell_arrays_are_built_on_first_use(name):
    grid = GRIDS[name]()
    assert not set(CELL_ARRAYS) & set(vars(grid))
    # every node but an edge's last is a cell's tail, but its first a head
    first, last = grid.edge_start[:-1], grid.edge_start[1:] - 1
    not_first, not_last = np.ones(grid.node_dof.size, bool), np.ones(grid.node_dof.size, bool)
    not_first[first], not_last[last] = False, False
    cells = np.array(list(grid.cells_per_edge.values()))
    expect = (grid.node_dof[not_last], grid.node_dof[not_first], np.repeat(grid.edge_h, cells))
    for attr, ref in zip(CELL_ARRAYS, expect):
        got = getattr(grid, attr)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert not got.flags.writeable and getattr(grid, attr) is got


def test_a_shifted_solve_builds_no_cell_arrays(fine_edge):
    grid, k, rhs, _, _ = fine_edge
    solve_shifted(grid, k, rhs)
    assert not set(CELL_ARRAYS) & set(vars(grid))


# the most memory each primitive may allocate at once on the 1e5-cell edge,
# in DOF vectors of 8 ndof bytes, its result included, once K and the
# operators exist: half a vector above the 9.1, 10.0 and 12.0 measured with
# every sum and product formed in one array (with a new array for each
# operation they take 10.1, 12.0 and 14.0)
PEAK_VECTORS = {"solve_shifted": 9.5, "solve_poisson_meanzero": 10.5, "build_upper": 11.5}


def test_linear_primitives_keep_a_memory_budget(fine_edge):
    grid, k, rhs, flux, h = fine_edge
    calls = {"solve_shifted": lambda: solve_shifted(grid, k, rhs),
             "solve_poisson_meanzero": lambda: solve_poisson_meanzero(grid, flux),
             "build_upper": lambda: build_upper(h)}
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            call()  # K, the operators and the Schur pattern are kept
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / (8.0 * grid.ndof)
    finally:
        tracemalloc.stop()
    assert all(peaks[name] <= bound for name, bound in PEAK_VECTORS.items()), peaks


def _t_solver(t_diag, t_off):
    """Solves with T from dpttrf, or from dgttrf where it meets a nonpositive
    pivot, each on its own copy of the diagonal."""
    ld, le, info = lapack.dpttrf(t_diag, t_off)
    if info == 0:
        return lambda b: lapack.dpttrs(ld, le, b)[0]
    *tlu, info = lapack.dgttrf(t_off, t_diag, t_off)
    assert info == 0
    return lambda b: lapack.dgttrs(*tlu, b)[0]


@pytest.mark.parametrize("name", ["single-2", "theta", "tree60-0", "star1000"])
def test_in_place_arithmetic_matches_the_expressions(name):
    # each sum and product is formed in one output array, in the order of
    # the expressions below, so the results agree bit for bit
    grid = GRIDS[name]()
    K, w, n, ops = grid.stiffness, grid.weights, grid.ndof, grid.operators
    nv, ni = ops.nv, ops.ni
    rng = np.random.default_rng(17)
    u, h = rng.standard_normal(n), rng.standard_normal(n)
    assert np.array_equal(assembly.residual_vector(grid, u, h, -0.3),
                          K @ u + -0.3 * w - w * (h * np.exp(u)))
    # a positive shift, and half of K's diagonal taken off it, which dpttrf
    # cannot factor on a long edge: the fallback runs on a rebuilt diagonal
    shifts = [w * rng.uniform(0.5, 2.0, n), w - 0.5 * ops.kdiag]
    t_off = np.concatenate((K.diagonal(1)[nv:], [0.0, 0.0]))
    for d, pivoted in zip(shifts, (False, ni > 1)):
        t_solve = _t_solver(np.concatenate((K.diagonal()[nv:] + d[nv:], [1.0, 1.0])), t_off)
        for border in (None, w):
            lu = ops.factor(d, border)
            assert lu.pivoted is pivoted
            m = n + (border is not None)
            x, b = rng.standard_normal(m), rng.standard_normal(m)
            if border is None:
                ax = K @ x + d * x
            else:
                y = x[:n]
                ax = np.append(K @ y + d * y + border * x[-1], border @ y)
            assert np.array_equal(lu.matvec(x), ax)
            # T y = b_I, S x_R = b_R - C^T y, x_I = y - Z x_R
            cols = np.zeros((ni + 2, 2 if border is None else 3), order="F")
            cols[:, :2] = ops.ends
            if border is not None:
                cols[:ni, 2] = border[nv:]
            z = t_solve(cols)[:ni]
            assert np.array_equal(lu._z, z)
            y = t_solve(np.concatenate((b[nv:n], [0.0, 0.0])))[:ni]
            r = b[:nv] - ops.couple(y)
            if border is not None:
                r = np.append(r, b[n] - border[nv:] @ y)
            xr = lu._schur_solve(r)
            xi = y - (z[:, 0] * xr[ops.tail_of] + z[:, 1] * xr[ops.head_of])
            if border is not None:
                xi -= z[:, 2] * xr[nv]
            assert np.array_equal(lu.solve(b), np.concatenate((xr[:nv], xi, xr[nv:])))
            assert np.array_equal(lu.solve_checked(b), lu.solve(b))
            if border is None and n <= 2000:
                # the inertia count reads the diagonal again
                eig = np.linalg.eigvalsh(K.toarray() + np.diag(d))
                assert lu.negative_eigenvalues() == int(np.sum(eig < 0.0))
