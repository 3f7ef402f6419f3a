"""Shared builders for the test suite: graphs, random profiles, oracle folds."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import splu

from kwnet import (
    GridFunction,
    build_graph,
    build_grid,
    build_lower,
    build_upper,
    build_upper_hneg,
    constant,
    integrate,
    oracle_newton,
)
from kwnet.assembly import assemble_stiffness
from kwnet.errors import Diverged


# ----------------------------------------------------------------------
# graph topologies (the five used throughout: edge, path, star, cycle, theta)
# ----------------------------------------------------------------------

def make_single(cells=64, length=1.0):
    g = build_graph(["p", "q"], [("e1", "p", "q", length)])
    return build_grid(g, {"e1": cells})


def make_path3(cells=32, lengths=(1.0, 0.6, 1.4)):
    g = build_graph(
        ["v0", "v1", "v2", "v3"],
        [("e1", "v0", "v1", lengths[0]),
         ("e2", "v1", "v2", lengths[1]),
         ("e3", "v2", "v3", lengths[2])],
    )
    return build_grid(g, {"e1": cells, "e2": cells, "e3": cells})


def make_star3(cells=32, lengths=(1.0, 1.5, 0.7)):
    g = build_graph(
        ["o", "p", "q", "r"],
        [("e1", "o", "p", lengths[0]),
         ("e2", "o", "q", lengths[1]),
         ("e3", "o", "r", lengths[2])],
    )
    return build_grid(g, {"e1": cells, "e2": cells, "e3": cells})


def make_triangle(cells=32, lengths=(1.0, 0.8, 1.2)):
    g = build_graph(
        ["a", "b", "c"],
        [("e1", "a", "b", lengths[0]),
         ("e2", "b", "c", lengths[1]),
         ("e3", "c", "a", lengths[2])],
    )
    return build_grid(g, {"e1": cells, "e2": cells, "e3": cells})


def make_theta(cells=24, lengths=(1.0, 1.3, 0.9)):
    # two vertices joined by three parallel edges
    g = build_graph(
        ["a", "b"],
        [("e1", "a", "b", lengths[0]),
         ("e2", "a", "b", lengths[1]),
         ("e3", "a", "b", lengths[2])],
    )
    return build_grid(g, {"e1": cells, "e2": cells, "e3": cells})


TOPOLOGIES = (make_single, make_path3, make_star3, make_triangle, make_theta)


def random_grid(rng, cells_lo=16, cells_hi=48):
    maker = TOPOLOGIES[rng.integers(len(TOPOLOGIES))]
    cells = int(rng.integers(cells_lo, cells_hi + 1))
    if maker is make_single:
        return maker(cells=cells, length=float(rng.uniform(0.4, 2.0)))
    lengths = tuple(rng.uniform(0.4, 2.0, size=3))
    return maker(cells=cells, lengths=lengths)


def random_tree_grid(n_edges, seed, cells=None):
    """A random tree with hubs of high degree and edges of many lengths."""
    rng = np.random.default_rng(seed)
    parents = [int(rng.integers(0, max(1, j // 4))) for j in range(1, n_edges + 1)]
    edges = [(f"e{j}", f"v{p}", f"v{j + 1}", float(rng.uniform(0.1, 3.0)))
             for j, p in enumerate(parents)]
    graph = build_graph([f"v{j}" for j in range(n_edges + 1)], edges)
    if cells is None:
        cells = {e[0]: int(rng.integers(2, 40)) for e in edges}
    return build_grid(graph, cells)


def star_grid(n_edges, cells=32):
    """A hub joined to n_edges leaves, lengths spread over [0.6, 1.4]."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    edges = [(f"e{j}", "o", f"v{j}", 0.6 + 0.8 * ((j * golden) % 1.0)) for j in range(n_edges)]
    graph = build_graph(["o"] + [f"v{j}" for j in range(n_edges)], edges)
    return build_grid(graph, cells)


# ----------------------------------------------------------------------
# the stiffness matrix by COO triplets (the oracle of the direct CSR build)
# ----------------------------------------------------------------------

def coo_stiffness(grid):
    """K from per-cell COO triplets, edge by edge, summed by scipy's
    sum_duplicates, which orders a row's duplicates by an unstable sort."""
    a, b = grid.cell_tail, grid.cell_head
    cell = 1.0 / grid.cell_h
    n = np.diff(grid.edge_start) - 1
    order = np.argsort(np.tile(np.repeat(np.arange(n.size), n), 4), kind="stable")
    rows = np.concatenate((a, b, a, b))[order]
    cols = np.concatenate((a, b, b, a))[order]
    vals = np.concatenate((cell, cell, -cell, -cell))[order]
    mat = csr_matrix((vals, (rows, cols)), shape=(grid.ndof, grid.ndof))
    mat.sum_duplicates()
    return mat


def assert_stiffness_matches(K, ref, grid):
    """K and ref share indptr, indices and data bitwise, except the diagonal
    of a vertex of degree 9 or more, whose 2d entries are more than the 16
    that scipy's sort keeps in order: that sum is only equal to within
    degree * eps relative."""
    assert np.array_equal(K.indptr, ref.indptr) and np.array_equal(K.indices, ref.indices)
    nv = len(grid.graph.vertex_ids)
    degree = np.bincount(grid.node_dof[grid.end_nodes], minlength=nv)
    loose = np.zeros(K.nnz, dtype=bool)
    loose[K.indptr[:nv][degree >= 9]] = True
    assert np.array_equal(K.data[~loose], ref.data[~loose])
    rows = np.flatnonzero(degree >= 9)
    diff = np.abs(K.data[K.indptr[rows]] - ref.data[K.indptr[rows]])
    assert np.all(diff <= degree[rows] * np.finfo(float).eps * np.abs(ref.data[K.indptr[rows]]))


# ----------------------------------------------------------------------
# random smooth profiles (continuity is automatic on shared DOFs)
# ----------------------------------------------------------------------

def smooth_random(grid, rng):
    """Random continuous profile, smoothed and normalized to sup = 1."""
    v = rng.standard_normal(grid.ndof)
    K = assemble_stiffness(grid)
    eps = (grid.total_length / 10.0) ** 2
    A = (eps * K + diags(grid.weights)).tocsc()
    v = splu(A).solve(grid.weights * v)
    sup = float(np.max(np.abs(v)))
    if sup < 1e-12:  # absurdly unlucky draw; fall back to a ramp
        v = np.linspace(-1.0, 1.0, grid.ndof)
        sup = 1.0
    return GridFunction(grid, v / sup)


def random_h_sign_changing(grid, rng, depth=0.3):
    """Sign-changing h with int h = -depth * |graph| exactly (up to rounding)."""
    v = smooth_random(grid, rng)
    centered = v.values - integrate(v) / grid.total_length
    sup = float(np.max(np.abs(centered)))
    return GridFunction(grid, centered / sup - depth)


def random_h_nonpositive(grid, rng):
    v = smooth_random(grid, rng)
    return GridFunction(grid, -0.1 - (v.values + 1.0))


def random_h_positive_somewhere(grid, rng):
    v = smooth_random(grid, rng)
    centered = v.values - integrate(v) / grid.total_length
    sup = float(np.max(np.abs(centered)))
    return GridFunction(grid, centered / sup + 0.1)


# ----------------------------------------------------------------------
# exact upper/lower pairs for the monotone iteration
# ----------------------------------------------------------------------

def ordered_pair(h, c):
    """Certified (u_minus, u_plus) for c < 0; c must be in the certified range
    when h takes positive values."""
    if float(np.max(h.values)) <= 0.0:
        up = build_upper_hneg(h, c)
    else:
        params = build_upper(h)
        if c < params.implied_c:
            raise ValueError("c below the certified range; pick c >= implied_c")
        up = params.u_plus()
    base = build_lower(h, c, margin=0.5 * abs(c))
    a_const = max(-float(np.min(base.values)), 1.0 - float(np.min(up.values)))
    return constant(h.grid, -a_const), up


# ----------------------------------------------------------------------
# independent fold locator (oracle-only continuation + bisection)
# ----------------------------------------------------------------------

def oracle_fold(h, c_top, c_bottom, *, gap=1e-5):
    """Bracket the fold point using nothing but the damped-Newton oracle.

    Continues the branch downward from a solvable c_top: bisection on
    Diverged, reseeding from the last converged state.  Returns (lo, hi)
    with the fold inside; lo failed, hi solved.
    """
    sol = oracle_newton(h, c_top)
    seed = sol.u
    hi, lo = c_top, c_bottom
    try:
        sol = oracle_newton(h, lo, seed=seed)
        raise AssertionError(f"oracle unexpectedly solved at c = {lo}")
    except Diverged:
        pass
    while hi - lo > gap:
        mid = 0.5 * (lo + hi)
        try:
            sol = oracle_newton(h, mid, seed=seed)
            hi, seed = mid, sol.u
        except Diverged:
            lo = mid
    return lo, hi
