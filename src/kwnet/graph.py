"""Metric graphs, uniform grids, grid functions, quadrature and norms.

A metric graph is a finite connected set of vertices joined by edges, each edge
identified with an interval [0, l_j].  Functions on the graph are continuous:
they are given per edge and share one value per vertex.  The discretization
uses a uniform grid on every edge with one global degree of freedom per vertex
and n_j - 1 interior nodes per edge, so vertex continuity holds by
construction.

Also provided here are the two functional inequalities used throughout the
tests: the network Poincare inequality for mean-zero functions and the
Trudinger-Moser bound on integral exp(beta f^2).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ContinuityMismatch,
    DanglingEndpoint,
    DisconnectedGraph,
    NonpositiveLength,
    NotMeanZero,
    ResolutionTooCoarse,
    SelfLoop,
    SeminormExceedsDelta,
)

# Relative tolerance for vertex agreement of sampled edge profiles.
CONTINUITY_RTOL = 1e-10
# Tolerance scale for "mean zero" preconditions.
MEAN_RTOL = 1e-9


@dataclass(frozen=True)
class Edge:
    """One edge of a metric graph.

    The coordinate s runs from 0 at ``tail`` to ``length`` at ``head``;
    ``length`` is stored as a float.
    """

    id: str
    tail: str
    head: str
    length: float

    def __post_init__(self):
        if type(self.length) is not float:
            object.__setattr__(self, "length", float(self.length))


@dataclass(frozen=True)
class MetricGraph:
    """A finite connected metric graph.

    Attributes
    ----------
    vertex_ids : tuple
        Vertex identifiers, in construction order.
    edges : tuple of Edge
        Edges with positive lengths; parallel edges allowed, self-loops not.
    total_length : float
        Sum of all edge lengths (the measure of the whole graph).
    edge_tail, edge_head : read-only integer arrays
        The index in ``vertex_ids`` of every edge's tail and head.
    edge_length : read-only float array of the edge lengths
    edge_position : mapping edge id -> index of the edge in ``edges``
    """

    vertex_ids: tuple
    edges: tuple
    total_length: float
    edge_tail: np.ndarray = field(repr=False, compare=False)
    edge_head: np.ndarray = field(repr=False, compare=False)
    edge_length: np.ndarray = field(repr=False, compare=False)
    edge_position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = map(_EDGE_ID, self.edges)
        object.__setattr__(self, "edge_position", dict(zip(ids, range(len(self.edges)))))


_EDGE_ID = operator.attrgetter("id")
_EDGE_FIELDS = operator.attrgetter("id", "tail", "head", "length")


def build_graph(vertices: Sequence, edges: Sequence) -> MetricGraph:
    """Validate and build a MetricGraph.

    Parameters
    ----------
    vertices : sequence of vertex identifiers
    edges : sequence of (edge_id, tail, head, length) tuples or Edge objects

    The checks run on arrays over all edges.  The first edge at fault, in
    edge order, is reported, with the first fault it has in the order below;
    duplicate edge ids are reported once every edge has passed those checks.

    Raises
    ------
    NonpositiveLength, SelfLoop, DanglingEndpoint, DisconnectedGraph
    """
    if not vertices or not edges:
        raise ValueError("a metric graph needs at least one vertex and one edge")
    vertex_ids = tuple(vertices)
    index = dict(zip(vertex_ids, range(len(vertex_ids))))
    if len(index) != len(vertex_ids):
        raise ValueError("duplicate vertex ids")

    built = tuple(spec if isinstance(spec, Edge) else Edge(*spec) for spec in edges)
    ids, tails, heads, lengths = zip(*map(_EDGE_FIELDS, built))
    n = len(built)
    length = np.array(lengths, dtype=float)
    tail = np.fromiter(map(index.get, tails, repeat(-1)), dtype=np.intp, count=n)
    head = np.fromiter(map(index.get, heads, repeat(-1)), dtype=np.intp, count=n)
    bad = ~(np.isfinite(length) & (length > 0.0))
    bad |= np.fromiter(map(operator.eq, tails, heads), dtype=bool, count=n)
    bad |= (tail < 0) | (head < 0)
    if bad.any():
        e = built[int(np.argmax(bad))]
        if not math.isfinite(e.length) or e.length <= 0.0:
            raise NonpositiveLength(f"edge {e.id!r} has length {e.length}")
        if e.tail == e.head:
            raise SelfLoop(f"edge {e.id!r} joins {e.tail!r} to itself")
        v = e.tail if e.tail not in index else e.head
        raise DanglingEndpoint(f"edge {e.id!r} references unknown vertex {v!r}")
    if len(set(ids)) != n:
        raise ValueError("duplicate edge ids")

    unreached = np.flatnonzero(_components(len(vertex_ids), tail, head))
    if unreached.size:
        missing = [vertex_ids[i] for i in unreached]
        raise DisconnectedGraph(f"vertices unreachable from {vertex_ids[0]!r}: {missing}")

    for a in (tail, head, length):
        a.setflags(write=False)
    return MetricGraph(vertex_ids=vertex_ids, edges=built, total_length=float(sum(lengths)),
                       edge_tail=tail, edge_head=head, edge_length=length)


def _components(nv: int, tail: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The smallest vertex index in each vertex's connected component.

    Every round hooks each tree root to the smallest root an edge joins it
    to and then jumps every vertex to its root, so every tree with an edge
    out of it merges and O(log |V|) rounds suffice."""
    label = np.arange(nv)
    while True:
        lt, lh = label[tail], label[head]
        if np.array_equal(lt, lh):
            return label
        low = np.minimum(lt, lh)
        np.minimum.at(label, lt, low)
        np.minimum.at(label, lh, low)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform per-edge grid over a MetricGraph.

    Attributes
    ----------
    graph : MetricGraph
    cells_per_edge : dict edge id -> n_j (>= 2)
    ndof : int
        Total degrees of freedom: |V| + sum_j (n_j - 1).
    edge_dofs : dict edge id -> integer array of the n_j + 1 node DOF indices,
        ordered tail -> head; first/last entries are the shared vertex DOFs
        (built on first use).
    spacing : dict edge id -> h_j = l_j / n_j
    weights : ndarray
        Trapezoid weight of every DOF (also the lumped mass diagonal).

    The read-only arrays below number the nodes of all edges, each tail to
    head, edges in order.  The cells between consecutive nodes are numbered
    likewise; their arrays ``cell_tail``, ``cell_head`` (the DOF at each end)
    and ``cell_h`` (the spacing) are built on first use, since only the norms
    and the verification read them.  ``edge_dofs`` and ``edge_coords`` are
    views of ``node_dof`` and ``node_s``.
    """

    graph: MetricGraph
    cells_per_edge: dict
    ndof: int
    spacing: dict = field(repr=False)
    weights: np.ndarray = field(repr=False)
    edge_start: np.ndarray = field(repr=False)  # edge j: nodes edge_start[j] to [j + 1] - 1
    edge_h: np.ndarray = field(repr=False)  # spacing of every edge
    node_dof: np.ndarray = field(repr=False)
    node_s: np.ndarray = field(repr=False)  # arclength from the edge's tail
    node_edge: np.ndarray = field(repr=False)
    dof_node: np.ndarray = field(repr=False)  # a vertex: its first edge end

    @property
    def total_length(self) -> float:
        return self.graph.total_length

    # assembly builds on this module, hence the imports at first use
    @cached_property
    def stiffness(self):
        """The stiffness matrix K (assembly.assemble_stiffness), built on
        first use and kept for the life of the grid."""
        from .assembly import assemble_stiffness

        return assemble_stiffness(self)

    @cached_property
    def operators(self):
        """The K + diag(d) solver structure (assembly.GridOperators), built
        on first use and kept for the life of the grid."""
        from .assembly import GridOperators

        return GridOperators(self)

    @cached_property
    def edge_dofs(self) -> dict:
        bounds = self.edge_start.tolist()
        return {eid: self.node_dof[a:b]
                for eid, a, b in zip(self.cells_per_edge, bounds[:-1], bounds[1:])}

    @cached_property
    def cell_tail(self) -> np.ndarray:
        """The DOF at each cell's tail end: every node but an edge's last."""
        return _read_only(np.delete(self.node_dof, self.edge_start[1:] - 1))

    @cached_property
    def cell_head(self) -> np.ndarray:
        """The DOF at each cell's head end: every node but an edge's first."""
        return _read_only(np.delete(self.node_dof, self.edge_start[:-1]))

    @cached_property
    def cell_h(self) -> np.ndarray:
        """The spacing of every cell."""
        return _read_only(np.repeat(self.edge_h, np.diff(self.edge_start) - 1))

    @cached_property
    def end_nodes(self) -> np.ndarray:
        """The tail and head node of every edge, edges in order."""
        return np.column_stack((self.edge_start[:-1], self.edge_start[1:] - 1)).ravel()

    def edge_nodes(self, edges) -> np.ndarray:
        """The nodes of the edges with indices ``edges``, edge after edge."""
        start = self.edge_start[edges]
        count = self.edge_start[np.asarray(edges) + 1] - start
        return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)

    def vertex_dof(self, vertex_id) -> int:
        return self.graph.vertex_ids.index(vertex_id)

    def edge_coords(self, edge_id) -> np.ndarray:
        """Arclength coordinates (from the tail) of the edge's nodes."""
        j = self.graph.edge_position[edge_id]
        return self.node_s[self.edge_start[j]:self.edge_start[j + 1]]


def grids_compatible(a: Grid, b: Grid) -> bool:
    """Structural equality: same graph shape and same cell counts."""
    if a is b:
        return True
    ga, gb = a.graph, b.graph
    return (
        ga.vertex_ids == gb.vertex_ids
        and ga.edges == gb.edges
        and a.cells_per_edge == b.cells_per_edge
    )


def build_grid(graph: MetricGraph, resolution) -> Grid:
    """Build a grid with n_j >= 2 cells on every edge.

    ``resolution`` may be an integer, numpy's included (cells on every
    edge), a float (target spacing; n_j = ceil(l_j / resolution), floored at
    2), or a mapping edge id -> cell count, an integer for every edge.  A
    bool is none of these: ValueError, as for a mapping that misses an edge
    or maps one to anything but an integer.
    """
    ids = list(graph.edge_position)
    length = graph.edge_length
    if isinstance(resolution, (bool, np.bool_)):
        raise ValueError(f"resolution must be a cell count, a spacing or a mapping, "
                         f"not {resolution!r}")
    if isinstance(resolution, Mapping):
        for eid in ids:
            if eid not in resolution:
                raise ValueError(f"resolution has no cell count for edge {eid!r}")
            count = resolution[eid]
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"edge {eid!r}: cell count {count!r} is not an integer")
        n = np.fromiter(map(resolution.__getitem__, ids), dtype=np.intp, count=len(ids))
    elif isinstance(resolution, numbers.Integral):  # numpy's integers too
        n = np.full(len(ids), resolution, dtype=np.intp)
    else:
        target = float(resolution)
        if not target > 0:
            raise ResolutionTooCoarse("target spacing must be positive")
        n = np.maximum(2, np.ceil(length / target)).astype(np.intp)
    cells = dict(zip(ids, n.tolist()))
    if (n < 2).any():
        eid = ids[int(np.argmax(n < 2))]
        raise ResolutionTooCoarse(f"edge {eid!r}: {cells[eid]} cells requested, need >= 2")

    nv = len(graph.vertex_ids)
    end_dof = np.column_stack((graph.edge_tail, graph.edge_head))
    edge_h = length / n
    edge_start = np.concatenate(([0], np.cumsum(n + 1)))
    first, last = edge_start[:-1], edge_start[1:] - 1
    node = np.arange(edge_start[-1])
    node_edge = np.repeat(np.arange(n.size), n + 1)
    # arange * (l/n) with the end at l: bitwise np.linspace(0, l, n + 1)
    node_s = (node - edge_start[node_edge]) * edge_h[node_edge]
    node_s[last] = length
    # interior DOFs follow the vertices, numbered along the edges in order
    node_dof = nv - 1 + node - 2 * node_edge
    node_dof[first], node_dof[last] = end_dof.T
    ndof = nv + int(np.sum(n - 1))
    interior = np.ones(node.size, bool)
    interior[first], interior[last] = False, False
    dof_node = np.concatenate((np.full(nv, node.size), node[interior]))
    # the nodes at edge ends increase, so each vertex's smallest is its first
    np.minimum.at(dof_node, end_dof.ravel(), np.column_stack((first, last)).ravel())

    weights = np.zeros(ndof)
    weights[nv:] = np.repeat(edge_h, n - 1)
    # each end adds h and then takes h/2 back, in edge order: (w + h) - h/2
    # rounds otherwise than w + h/2
    np.add.at(weights, np.tile(end_dof, 2).ravel(),
              np.column_stack((edge_h, edge_h, -edge_h / 2.0, -edge_h / 2.0)).ravel())
    arrays = dict(weights=weights, edge_start=edge_start, edge_h=edge_h, node_dof=node_dof,
                  node_s=node_s, node_edge=node_edge, dof_node=dof_node)
    for a in arrays.values():
        a.setflags(write=False)

    return Grid(
        graph=graph,
        cells_per_edge=cells,
        ndof=ndof,
        spacing=dict(zip(ids, edge_h.tolist())),
        **arrays,
    )


@dataclass(frozen=True)
class GridFunction:
    """A continuous piecewise-linear function on the graph: one value per DOF.

    Vertex continuity is automatic because incident edges share the vertex DOF.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.ndof,):
            raise ValueError(f"expected {self.grid.ndof} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def edge_values(self, edge_id) -> np.ndarray:
        """Trace on one edge, ordered tail -> head."""
        return self.values[self.grid.edge_dofs[edge_id]]


def constant(grid: Grid, value: float) -> GridFunction:
    return GridFunction(grid, np.full(grid.ndof, float(value)))


def sample_function(grid: Grid, edge_profiles) -> GridFunction:
    """Sample per-edge profiles into a GridFunction.

    ``edge_profiles`` is a mapping edge id -> callable s -> value (s measured
    from the tail) or an array of n_j + 1 node samples; a bare callable is
    applied to every edge.  Values of different edges at a shared vertex must
    agree to relative tolerance 1e-10; the stored vertex value is the one from
    the lowest-indexed incident edge.

    Callables are called with Python floats, which costs less than calling
    them with numpy scalars.

    Raises ContinuityMismatch when profiles disagree at a shared vertex.
    """
    if callable(edge_profiles):
        return _sample_nodes(grid, _evaluate(edge_profiles, grid.node_s))

    per_edge = []
    for e in grid.graph.edges:
        if e.id not in edge_profiles:
            raise ValueError(f"no profile for edge {e.id!r}")
        prof = edge_profiles[e.id]
        if callable(prof):
            vals = _evaluate(prof, grid.edge_coords(e.id))
        else:
            vals = np.asarray(prof, dtype=float)
            n = grid.cells_per_edge[e.id]
            if vals.shape != (n + 1,):
                raise ValueError(
                    f"edge {e.id!r}: expected {n + 1} samples, got shape {vals.shape}"
                )
        per_edge.append(vals)
    return _sample_nodes(grid, np.concatenate(per_edge))


def _evaluate(f, s: np.ndarray) -> np.ndarray:
    """f at each point of s, as float64."""
    return np.fromiter(map(f, s.tolist()), dtype=float, count=len(s))


def _sample_nodes(grid: Grid, node_values: np.ndarray) -> GridFunction:
    """The GridFunction taking ``node_values`` at the grid's nodes; each
    vertex takes the value of its first incident edge end, and every other
    end must agree with it (ContinuityMismatch names the first that does not)."""
    values = node_values[grid.dof_node]
    ends = grid.end_nodes
    given, kept = node_values[ends], values[grid.node_dof[ends]]
    scale = np.maximum(1.0, np.maximum(np.abs(kept), np.abs(given)))
    clash = np.abs(kept - given) > CONTINUITY_RTOL * scale
    if clash.any():
        k = int(np.argmax(clash))
        eid = grid.graph.edges[k // 2].id
        raise ContinuityMismatch(
            f"edge {eid!r} gives {given[k]!r} at a vertex already valued {kept[k]!r}"
        )
    return GridFunction(grid, values)


def integrate(f: GridFunction) -> float:
    """Edge-wise trapezoid quadrature; exact for piecewise-linear functions."""
    return float(f.grid.weights @ f.values)


@dataclass(frozen=True)
class Norms:
    l2: float
    h1_seminorm: float
    sup: float
    mean: float


def h1_seminorm(f: GridFunction) -> float:
    """sqrt of the Dirichlet energy sum_j sum_cells (df/h_j)^2 h_j (exact)."""
    grid = f.grid
    d = f.values[grid.cell_head] - f.values[grid.cell_tail]
    return math.sqrt(float(d @ (d / grid.cell_h)))


def norms(f: GridFunction) -> Norms:
    """L2 norm (trapezoid), H1 seminorm, sup norm and mean of f."""
    total = f.grid.total_length
    l2 = math.sqrt(max(0.0, float(f.grid.weights @ (f.values * f.values))))
    return Norms(
        l2=l2,
        h1_seminorm=h1_seminorm(f),
        sup=float(np.max(np.abs(f.values))),
        mean=integrate(f) / total,
    )


def exp_weighted_energy(u: GridFunction) -> float:
    """Dirichlet energy of u weighted by e^(-u) at cell midpoints.

    Computes sum over cells of (du)^2 / h * exp(-(u_left + u_right) / 2).
    Testing the c = 0 equation against e^(-u) shows this equals -int h at a
    solution, which is the identity the verification layer checks.
    """
    grid = u.grid
    left, right = u.values[grid.cell_tail], u.values[grid.cell_head]
    d = right - left
    return float((d * d / grid.cell_h) @ np.exp(-0.5 * (left + right)))


def _require_mean_zero(f: GridFunction) -> None:
    m = integrate(f) / f.grid.total_length
    if abs(m) > MEAN_RTOL * (1.0 + float(np.max(np.abs(f.values)))):
        raise NotMeanZero(f"mean(f) = {m!r}; pre-center the input")


@dataclass(frozen=True)
class PoincareReport:
    holds_pointwise: bool
    holds_l2: bool
    lhs_pointwise: float  # sup |f|
    rhs_pointwise: float  # sqrt(|G|) * ||df||_2
    lhs_l2: float  # int f^2
    rhs_l2: float  # |G|^2 * int |df|^2


def check_poincare(f: GridFunction) -> PoincareReport:
    """Evaluate both network Poincare inequalities for a mean-zero f.

    (i)  sup|f| <= sqrt(|G|) ||df||_L2
    (ii) int f^2 <= |G|^2 int |df|^2
    """
    _require_mean_zero(f)
    total = f.grid.total_length
    semi = h1_seminorm(f)
    sup = float(np.max(np.abs(f.values)))
    l2sq = float(f.grid.weights @ (f.values * f.values))
    rhs_pw = math.sqrt(total) * semi
    rhs_l2 = total * total * semi * semi
    return PoincareReport(
        holds_pointwise=sup <= rhs_pw * (1.0 + 1e-13) + 1e-300,
        holds_l2=l2sq <= rhs_l2 * (1.0 + 1e-13) + 1e-300,
        lhs_pointwise=sup,
        rhs_pointwise=rhs_pw,
        lhs_l2=l2sq,
        rhs_l2=rhs_l2,
    )


@dataclass(frozen=True)
class MoserReport:
    integral: float  # int exp(beta f^2)
    bound: float
    holds: bool


def check_moser(f: GridFunction, beta: float, delta: float) -> MoserReport:
    """Evaluate the Trudinger-Moser bound for mean-zero f with energy <= delta.

    For beta > 0 the bound is exp(beta |G| delta) |G|; for beta <= 0 the
    integrand is <= 1 pointwise and the bound reduces to |G|.
    """
    if not delta > 0:  # NaN too
        raise ValueError(f"delta must be positive, got {delta!r}")
    _require_mean_zero(f)
    energy = h1_seminorm(f) ** 2
    if energy > delta * (1.0 + 1e-12):
        raise SeminormExceedsDelta(f"int |df|^2 = {energy!r} > delta = {delta!r}")
    total = f.grid.total_length
    with np.errstate(over="ignore"):
        integral = float(f.grid.weights @ np.exp(beta * f.values * f.values))
    # exp saturates to inf for large beta*delta; the bound is then vacuous,
    # which is the right answer rather than an overflow crash
    exponent = max(beta, 0.0) * total * delta
    bound = math.exp(exponent) * total if exponent < 700.0 else math.inf
    return MoserReport(
        integral=integral,
        bound=bound,
        holds=integral <= bound * (1.0 + 1e-13),
    )
