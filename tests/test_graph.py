"""Graph/grid construction, quadrature, norms and the two inequalities."""

import math

import numpy as np
import pytest

from kwnet import (
    GridFunction,
    build_graph,
    build_grid,
    check_moser,
    check_poincare,
    constant,
    exp_weighted_energy,
    h1_seminorm,
    integrate,
    norms,
    sample_function,
    solve_shifted,
)
from kwnet.errors import (
    ContinuityMismatch,
    DanglingEndpoint,
    DisconnectedGraph,
    NonpositiveLength,
    NotMeanZero,
    ResolutionTooCoarse,
    SelfLoop,
    SeminormExceedsDelta,
)
from kwnet.graph import Edge
from helpers import (assert_stiffness_matches, make_single, make_star3, make_theta,
                     make_triangle, random_tree_grid)


def test_build_graph_validates():
    with pytest.raises(NonpositiveLength):
        build_graph(["a", "b"], [("e", "a", "b", 0.0)])
    with pytest.raises(NonpositiveLength):
        build_graph(["a", "b"], [("e", "a", "b", -1.0)])
    with pytest.raises(SelfLoop):
        build_graph(["a", "b"], [("e", "a", "a", 1.0)])
    with pytest.raises(DanglingEndpoint):
        build_graph(["a", "b"], [("e", "a", "zz", 1.0)])
    with pytest.raises(DisconnectedGraph):
        build_graph(
            ["a", "b", "c", "d"],
            [("e1", "a", "b", 1.0), ("e2", "c", "d", 1.0)],
        )
    with pytest.raises(ValueError):
        build_graph(["a", "a"], [("e", "a", "a", 1.0)])
    with pytest.raises(ValueError):
        build_graph(["a", "b"], [("e", "a", "b", 1.0), ("e", "b", "a", 1.0)])


def test_build_graph_reports_the_first_edge_at_fault():
    # the checks run on arrays: the first faulty edge in edge order, and its
    # first fault in the documented order, as an edge-by-edge loop finds them
    good = ("e0", "a", "b", 1.0)
    with pytest.raises(SelfLoop, match="'e1'"):
        build_graph(["a", "b"], [good, ("e1", "b", "b", 1.0), ("e2", "a", "zz", -1.0)])
    with pytest.raises(NonpositiveLength, match="'e1' has length nan"):
        build_graph(["a", "b"], [good, ("e1", "zz", "zz", math.nan)])
    with pytest.raises(DanglingEndpoint, match="unknown vertex 'yy'"):
        build_graph(["a", "b"], [good, ("e1", "yy", "zz", 1.0)])
    with pytest.raises(DanglingEndpoint, match="unknown vertex 'zz'"):
        build_graph(["a", "b"], [("e0", "a", "b", 1.0), ("e0", "a", "zz", 1.0)])


def test_edge_lengths_are_stored_as_python_floats():
    # a float is kept as given; ints and numpy scalars are converted
    for length in (2, np.int64(3), np.float64(1.5), 1.25):
        edge = Edge("e", "a", "b", length)
        assert type(edge.length) is float and edge.length == float(length)


def test_connectivity_on_long_paths_and_split_graphs():
    rng = np.random.default_rng(5)
    names = [f"v{k}" for k in rng.permutation(400)]
    path = [(f"e{k}", names[k], names[k + 1], 1.0) for k in range(399)]
    assert len(build_graph(names, path).edges) == 399
    # cut the path: the far part is unreachable from the first vertex
    with pytest.raises(DisconnectedGraph) as info:
        build_graph(names, path[:150] + path[151:])
    assert str(info.value) == f"vertices unreachable from {names[0]!r}: {names[151:]}"


def test_parallel_edges_allowed():
    grid = make_theta()
    assert sum("a" in (e.tail, e.head) for e in grid.graph.edges) == 3
    assert grid.graph.total_length == pytest.approx(1.0 + 1.3 + 0.9)


def test_grid_dof_layout():
    grid = make_star3(cells=8)
    # 4 vertices + 3 * (8 - 1) interior nodes
    assert grid.ndof == 4 + 3 * 7
    center = grid.vertex_dof("o")
    for eid in ("e1", "e2", "e3"):
        assert grid.edge_dofs[eid][0] == center  # all tails at the center
        assert len(grid.edge_dofs[eid]) == 9
    # weights sum to the total length (partition of the measure)
    assert float(np.sum(grid.weights)) == pytest.approx(grid.total_length, rel=1e-14)
    assert np.all(grid.weights > 0)


def test_grid_resolution_forms():
    grid_int = make_single(cells=10)
    assert grid_int.cells_per_edge["e1"] == 10
    g = grid_int.graph
    by_spacing = build_grid(g, 0.05)
    assert by_spacing.cells_per_edge["e1"] == 20
    with pytest.raises(ResolutionTooCoarse):
        build_grid(g, -0.1)


def test_numpy_integers_are_cell_counts_and_bools_are_rejected():
    g = make_single(cells=4).graph
    for count in (np.int64(32), np.int32(32), np.uint8(32)):
        assert build_grid(g, count).cells_per_edge == {"e1": 32}
    assert build_grid(g, np.float64(0.25)).cells_per_edge == {"e1": 4}
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="resolution must be a cell count"):
            build_grid(g, flag)


def test_a_cell_count_mapping_is_checked_edge_by_edge():
    # a count that is not an integer was truncated (3.7 gave 3 cells), and a
    # mapping that misses an edge raised a bare KeyError
    g = build_graph(["o", "p", "q"], [("e1", "o", "p", 1.0), ("e2", "o", "q", 1.0)])
    assert build_grid(g, {"e1": 3, "e2": np.int64(4)}).cells_per_edge == {"e1": 3, "e2": 4}
    for counts, bad in (({"e1": 3.7, "e2": 4}, "'e1': cell count 3.7"),
                        ({"e1": 3, "e2": True}, "'e2': cell count True"),
                        ({"e1": 3, "e2": "4"}, "'e2': cell count '4'")):
        with pytest.raises(ValueError, match=f"^edge {bad} is not an integer$"):
            build_grid(g, counts)
    with pytest.raises(ValueError, match="^resolution has no cell count for edge 'e2'$"):
        build_grid(g, {"e1": 3})


def test_construction_rejections_name_the_fault():
    with pytest.raises(ValueError, match="at least one vertex and one edge"):
        build_graph([], [])
    grid = make_star3(cells=8)
    with pytest.raises(ResolutionTooCoarse, match="edge 'e2': 1 cells requested, need >= 2"):
        build_grid(grid.graph, {"e1": 8, "e2": 1, "e3": 8})
    with pytest.raises(ValueError, match=f"expected {grid.ndof} values, got shape \\(3,\\)"):
        GridFunction(grid, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="no profile for edge 'e2'"):
        sample_function(grid, {"e1": lambda s: s, "e3": lambda s: s})


def test_edge_coords_run_tail_to_head():
    grid = make_single(cells=4, length=2.0)
    assert np.allclose(grid.edge_coords("e1"), [0.0, 0.5, 1.0, 1.5, 2.0])


def loop_stiffness_and_weights(grid):
    """K and the trapezoid weights assembled edge by edge (reference; scipy
    sums K's duplicate entries)."""
    from scipy import sparse

    rows, cols, vals = [], [], []
    weights = np.zeros(grid.ndof)
    for e in grid.graph.edges:
        dofs = grid.edge_dofs[e.id]
        h = e.length / grid.cells_per_edge[e.id]
        a, b = dofs[:-1], dofs[1:]
        cell = np.full(len(a), 1.0 / h)
        rows.extend((a, b, a, b))
        cols.extend((a, b, b, a))
        vals.extend((cell, cell, -cell, -cell))
        weights[dofs] += h
        weights[dofs[0]] -= h / 2.0
        weights[dofs[-1]] -= h / 2.0
    K = sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(grid.ndof, grid.ndof))
    K.sum_duplicates()
    return K, weights


@pytest.mark.parametrize("seed", range(4))
def test_stiffness_and_weights_match_the_edge_loop_bitwise(seed):
    from kwnet import assemble_stiffness

    grid = random_tree_grid(60, seed)
    K = assemble_stiffness(grid)
    K_ref, w_ref = loop_stiffness_and_weights(grid)
    # bitwise but for the diagonal of a hub of degree >= 9, which K sums in
    # edge order and scipy in the order of an unstable sort
    assert_stiffness_matches(K, K_ref, grid)
    assert np.array_equal(grid.weights, w_ref)


def test_edge_coords_are_bitwise_linspace():
    grid = random_tree_grid(200, seed=5)
    for e in grid.graph.edges:
        n = grid.cells_per_edge[e.id]
        assert np.array_equal(grid.edge_coords(e.id), np.linspace(0.0, e.length, n + 1))
        assert grid.spacing[e.id] == e.length / n
    # the node numbering: DOFs interior to edges follow the vertices in edge order
    interior = np.concatenate([grid.edge_dofs[e.id][1:-1] for e in grid.graph.edges])
    assert np.array_equal(interior, np.arange(len(grid.graph.vertex_ids), grid.ndof))


def test_sample_function_shares_vertex_values():
    grid = make_star3(cells=8)
    f = sample_function(grid, lambda s: 1.0 + s * s)
    for eid in ("e1", "e2", "e3"):
        assert f.edge_values(eid)[0] == pytest.approx(1.0)


def test_sample_function_matches_numpy_scalar_evaluation_bitwise():
    # callables run on Python floats; the profiles of the benchmark, tests
    # and demos give the same values as on numpy float64 scalars
    k0, k1, f1, f2, eps = 0.83, 0.27, 0.61, 0.33, -0.031
    profiles = [
        lambda s: k0 + k1 * math.sin(3.0 * s) ** 2,
        lambda s: f1 * math.cos(2.0 * math.pi * s) + f2 * s,
        lambda s: math.cos(math.pi * s) - 0.1 + eps * math.sin(math.pi * s),
        lambda s: 0.3 * math.sin(2.0 * math.pi * s) - 1.0,
        lambda s: 1.0 + s * s,
        lambda s: 0.5 - 2.0 * math.sin(math.pi * s / 1.3),
        lambda s: np.cos(np.pi * s) - 0.1,
        lambda s: np.sin(2 * np.pi * s),
    ]
    for grid in (make_single(cells=10000), make_star3(cells=300)):
        for f in profiles:
            scalars = [float(f(s)) for s in grid.node_s]  # numpy float64 arguments
            expected = np.asarray(scalars)[grid.dof_node]
            assert np.array_equal(sample_function(grid, f).values, expected)
            by_edge = sample_function(grid, {e.id: f for e in grid.graph.edges})
            assert np.array_equal(by_edge.values, expected)


def test_sample_function_rejects_discontinuity():
    grid = make_star3(cells=8)
    profiles = {"e1": lambda s: s, "e2": lambda s: s + 1.0, "e3": lambda s: s}
    with pytest.raises(ContinuityMismatch):
        sample_function(grid, profiles)


def test_sample_function_accepts_arrays():
    grid = make_single(cells=4)
    f = sample_function(grid, {"e1": [0.0, 1.0, 2.0, 1.0, 0.0]})
    assert np.allclose(f.edge_values("e1"), [0, 1, 2, 1, 0])
    with pytest.raises(ValueError):
        sample_function(grid, {"e1": [0.0, 1.0]})


def test_gridfunction_rejects_nonfinite():
    grid = make_single(cells=4)
    with pytest.raises(ValueError):
        GridFunction(grid, [0.0, 1.0, np.nan, 1.0, 0.0])


def test_gridfunction_copies_what_its_caller_may_still_write():
    grid = make_single(cells=4)
    expected = [0.0, 1.0, 2.0, 1.0, 0.0]
    a = np.array(expected)
    f = GridFunction(grid, a)
    a[:] = 7.0
    assert np.array_equal(f.values, expected) and not f.values.flags.writeable
    # a read-only view of a writeable array is copied too
    base = np.array([9.0] + expected)
    view = base[1:]
    view.setflags(write=False)
    g = GridFunction(grid, view)
    base[:] = 7.0
    assert np.array_equal(g.values, expected)


def test_gridfunction_keeps_a_read_only_array_that_owns_its_memory():
    grid = make_single(cells=4)
    a = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    a.setflags(write=False)
    assert GridFunction(grid, a).values is a
    # kwnet's producers hand over their fresh results this way
    for f in (constant(grid, 2.0), sample_function(grid, lambda s: s * s),
              solve_shifted(grid, constant(grid, 1.0), constant(grid, -1.0))):
        assert GridFunction(grid, f.values).values is f.values


def test_integrate_exact_for_linear():
    # trapezoid quadrature integrates nodal-linear functions exactly
    grid = make_single(cells=7, length=2.0)
    f = sample_function(grid, lambda s: 3.0 * s - 1.0)
    assert integrate(f) == pytest.approx(3.0 * 2.0 + (-1.0) * 2.0, rel=1e-14)


def test_integrate_additive_over_edges():
    grid = make_triangle(cells=16)
    f = constant(grid, 2.5)
    assert integrate(f) == pytest.approx(2.5 * grid.total_length, rel=1e-14)


def test_h1_seminorm_exact_for_piecewise_linear():
    grid = make_single(cells=10, length=1.0)
    f = sample_function(grid, lambda s: 4.0 * s)
    assert h1_seminorm(f) == pytest.approx(4.0, rel=1e-13)
    assert h1_seminorm(constant(grid, 7.0)) == 0.0


def test_norms_fields():
    grid = make_single(cells=200)
    f = sample_function(grid, lambda s: math.sin(2 * math.pi * s))
    n = norms(f)
    assert n.sup == pytest.approx(1.0, abs=1e-3)
    assert n.l2 == pytest.approx(math.sqrt(0.5), rel=1e-3)
    assert n.h1_seminorm == pytest.approx(2 * math.pi * math.sqrt(0.5), rel=1e-3)
    assert abs(n.mean) < 1e-12


def test_exp_weighted_energy_constant_weight():
    # u constant: weight e^(-u) factors out of the Dirichlet sum
    grid = make_single(cells=50)
    f = sample_function(grid, lambda s: s)
    shifted = GridFunction(grid, f.values * 0.0 + 2.0)
    assert exp_weighted_energy(shifted) == 0.0
    lin = sample_function(grid, lambda s: 2.0 + 0.0 * s)
    assert exp_weighted_energy(lin) == 0.0
    # linear u = s: sum (h)(1)^2 e^{-mid}; compare against the exact integral
    val = exp_weighted_energy(f)
    exact = 1.0 - math.exp(-1.0)  # int_0^1 e^{-s} ds
    assert val == pytest.approx(exact, rel=1e-3)


def test_poincare_requires_mean_zero():
    grid = make_single(cells=16)
    with pytest.raises(NotMeanZero):
        check_poincare(constant(grid, 1.0))


def test_poincare_holds_for_sine():
    grid = make_single(cells=128)
    f = sample_function(grid, lambda s: math.sin(2 * math.pi * s))
    rep = check_poincare(f)
    assert rep.holds_pointwise and rep.holds_l2
    assert rep.lhs_pointwise <= rep.rhs_pointwise


def test_moser_guards():
    grid = make_single(cells=64)
    f = sample_function(grid, lambda s: math.sin(2 * math.pi * s))
    energy = h1_seminorm(f) ** 2
    with pytest.raises(SeminormExceedsDelta):
        check_moser(f, beta=1.0, delta=0.5 * energy)
    with pytest.raises(ValueError):
        check_moser(f, beta=1.0, delta=0.0)
    rep = check_moser(f, beta=1.5, delta=1.001 * energy)
    assert rep.holds
    rep_neg = check_moser(f, beta=-2.0, delta=1.001 * energy)
    assert rep_neg.holds and rep_neg.bound == pytest.approx(grid.total_length)


@pytest.mark.parametrize("delta", [-1.0, math.nan])
def test_moser_rejects_a_delta_that_is_not_positive(delta):
    # a NaN delta passed the old delta <= 0 test: holds=True, bound=inf
    f = sample_function(make_single(cells=64), lambda s: math.sin(2 * math.pi * s))
    with pytest.raises(ValueError, match="^delta must be positive, got "):
        check_moser(f, beta=1.0, delta=delta)
