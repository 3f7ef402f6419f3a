"""Property tests: invariants that must hold on randomized instances."""

import numpy as np
from hypothesis import given, settings, strategies as st

from kwnet import (
    GridFunction,
    apply_residual,
    assemble_stiffness,
    build_graph,
    build_grid,
    check_moser,
    check_poincare,
    classify,
    constant,
    h1_seminorm,
    integrate,
    solve_shifted,
)

from helpers import assert_stiffness_matches, coo_stiffness, random_grid, smooth_random

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_integrate_is_linear(seed, a, b):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng)
    f = GridFunction(grid, rng.standard_normal(grid.ndof))
    g = GridFunction(grid, rng.standard_normal(grid.ndof))
    combo = GridFunction(grid, a * f.values + b * g.values)
    lhs = integrate(combo)
    rhs = a * integrate(f) + b * integrate(g)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_stiffness_kernel_and_energy(seed):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng)
    K = assemble_stiffness(grid)
    ones = np.ones(grid.ndof)
    assert np.max(np.abs(K @ ones)) <= 1e-10
    v = rng.standard_normal(grid.ndof)
    energy = float(v @ (K @ v))
    assert energy >= -1e-10 * float(v @ v)
    # the quadratic form is exactly the squared H1 seminorm
    assert abs(energy - h1_seminorm(GridFunction(grid, v)) ** 2) <= 1e-9 * (1 + energy)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, k0=st.floats(0.1, 10.0))
def test_shifted_solve_inverse_positivity(seed, k0):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng)
    k = GridFunction(grid, np.full(grid.ndof, k0) + rng.uniform(0, 1, grid.ndof))
    u = solve_shifted(grid, k, GridFunction(grid, -rng.uniform(0, 1, grid.ndof))).values
    assert np.min(u) >= -1e-12 * (1.0 + np.max(np.abs(u)))


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_poincare_and_moser_hold(seed):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng)
    f = smooth_random(grid, rng)
    fv = f.values - integrate(f) / grid.total_length
    f = GridFunction(grid, fv - (grid.weights @ fv) / grid.total_length)
    rep = check_poincare(f)
    assert rep.holds_pointwise and rep.holds_l2
    beta = rng.uniform(-2.0, 3.0)
    delta = h1_seminorm(f) ** 2 * rng.uniform(1.0, 4.0) + 1e-12
    assert check_moser(f, beta, delta).holds


@settings(max_examples=25, deadline=None)
@given(seed=seeds, h0=st.floats(0.2, 5.0), c_mag=st.floats(0.1, 4.0),
       negative=st.booleans())
def test_constant_root_has_zero_residual(seed, h0, c_mag, negative):
    # u = log(c / h0) solves the equation exactly whenever c/h0 > 0
    rng = np.random.default_rng(seed)
    grid = random_grid(rng)
    sign = -1.0 if negative else 1.0
    c = sign * c_mag
    h = constant(grid, sign * h0)
    u = constant(grid, float(np.log(c_mag / h0)))
    res = apply_residual(u, h, c)
    assert res.weak_residual_norm <= 1e-10 * (1.0 + abs(c))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, c=st.floats(-3.0, 3.0))
def test_classify_matches_sign_conditions(seed, c):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng)
    raw = smooth_random(grid, rng).values + rng.uniform(-0.6, 0.6)
    h = GridFunction(grid, raw)
    verdict = classify(h, c)
    hmax, hmin, ih = np.max(raw), np.min(raw), integrate(h)
    if hmax == hmin == 0.0:
        expected = False
    elif c == 0.0:
        expected = (hmin < 0.0 < hmax) and ih < 0.0
    elif c > 0.0:
        expected = hmax > 0.0
    else:
        expected = ih < 0.0
    assert verdict.ok == expected
    assert (verdict.status == "NecessaryOK") == expected


@settings(max_examples=40, deadline=None)
@given(seed=seeds, kind=st.sampled_from(["tree", "star", "multigraph"]),
       n_edges=st.integers(1, 40))
def test_direct_csr_matches_the_coo_build(seed, kind, n_edges):
    # hubs of any degree, parallel edges, edges of two cells
    rng = np.random.default_rng(seed)
    if kind == "tree":
        ends = [(int(rng.integers(j)), j) for j in range(1, n_edges + 1)]
        nv = n_edges + 1
    elif kind == "star":
        ends = [(0, j) for j in range(1, n_edges + 1)]
        nv = n_edges + 1
    else:
        nv = int(rng.integers(2, 5))
        ends = [(j, j + 1) for j in range(nv - 1)]
        while len(ends) < max(n_edges, nv - 1):
            a, b = rng.choice(nv, size=2, replace=False)
            ends.append((int(a), int(b)))
    if rng.random() < 0.5:  # either end may be the tail
        ends = [(b, a) for a, b in ends]
    edges = [(f"e{j}", f"v{a}", f"v{b}", float(rng.uniform(0.1, 3.0)))
             for j, (a, b) in enumerate(ends)]
    graph = build_graph([f"v{j}" for j in range(nv)], edges)
    grid = build_grid(graph, {e[0]: int(rng.integers(2, 7)) for e in edges})
    assert_stiffness_matches(assemble_stiffness(grid), coo_stiffness(grid), grid)
