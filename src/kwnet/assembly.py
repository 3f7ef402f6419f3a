"""Discrete operators for the weak form on a metric-graph grid.

P1 finite elements on each edge, accumulated into the shared vertex DOFs, so
the flux-conservation (Kirchhoff) vertex condition is the natural boundary
condition of the discrete weak form and needs no special stencil.  The mass
matrix is lumped (trapezoid weights), which keeps K + M_k an M-matrix and
gives the discrete maximum principle the monotone iteration relies on.
K is written straight into its CSR arrays from the grid's node numbering,
with no COO triplets to sort and sum: each vertex's diagonal is the sum of
1/h over its incident edges, added in edge order.

Every linear solve has the form K + diag(d) (the Riesz map, the monotone
sweep, the Newton Jacobian, the bordered flux problem) and goes through
``GridOperators.factor``.  The edge interiors are eliminated first:
they form one tridiagonal T that couples no two edges, factored by LAPACK in
O(ndof) time and memory as LDL^T (dpttrf), or by partially pivoted LU
(dgttrf) where LDL^T meets a nonpositive pivot.  What remains is the
|V| x |V| vertex Schur complement, which has the graph-Laplacian pattern
(one entry per vertex and per edge) and is factored at a cost set by the
vertex graph alone, however fine the edges are meshed (Arioli & Benzi, IMA
J. Numer. Anal. 38, 2018): by dense LAPACK LU while it has at most
_DENSE_ROWS rows, by SuperLU above.  SuperLU's fixed cost is about 50 us per
factorization and 8 us per solve even at |V| = 2-11, where dense LU takes
about 2 us for each; on stars and random trees dense LU stays the cheaper up
to about |V| = 100.  A solve then takes one substitution with T and one
with the Schur complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal, lapack, ldl
from scipy.sparse import linalg as spla

from .errors import (
    GridMismatch,
    IncompatibleRHS,
    LinearSolveFailure,
    NonpositiveShift,
)
from .graph import Grid, GridFunction, grids_compatible, integrate

#: linear solves are verified a posteriori against this relative residual
LINEAR_RTOL = 1e-12
# decoupled unit rows appended to the interior tridiagonal (see GridOperators)
_PAD = 2
_ZEROS = np.zeros(_PAD)
# the largest vertex Schur complement, bordered or not, factored dense
_DENSE_ROWS = 64


def assemble_stiffness(grid: Grid) -> sparse.csr_matrix:
    """P1 stiffness as a CSR matrix: u^T K u = sum_j sum_cells (du/h_j)^2 h_j.

    Per-edge tridiagonal blocks with entries +-1/h_j; K is symmetric positive
    semidefinite with constants in its kernel and nonpositive off-diagonal.

    The CSR arrays are written directly, with sorted column indices and no
    duplicates.  Vertex rows come first: each holds its diagonal and then
    -1/h_j to the interior node next to it on every incident edge, edges in
    order.  The diagonal of a vertex is its incident 1/h_j summed in edge
    order, from the lowest-indexed edge up.  Every interior row holds three
    entries, -1/h, 2/h, -1/h, except on the last interior node of an edge:
    the head vertex beside it has a lower index, so there the diagonal comes
    last, -1/h, -1/h, 2/h.
    """
    nv, ndof = len(grid.graph.vertex_ids), grid.ndof
    cell = 1.0 / grid.edge_h
    # every edge end, tail then head, edges in order: its vertex, the
    # interior node next to it, and 1/h
    ends = grid.end_nodes
    end_vertex = grid.node_dof[ends]
    end_inner = grid.node_dof[ends + np.tile([1, -1], len(cell))]
    end_cell = np.repeat(cell, 2)
    # a vertex row holds its diagonal and one entry per edge end there, an
    # interior row three entries
    nnz = nv + len(ends) + 3 * (ndof - nv)
    idx = np.int32 if max(nnz, ndof) <= np.iinfo(np.int32).max else np.int64
    indptr = np.empty(ndof + 1, dtype=idx)
    indptr[0] = 0
    indptr[1:nv + 1] = np.cumsum(np.bincount(end_vertex, minlength=nv) + 1)
    indptr[nv + 1:] = np.arange(indptr[nv] + 3, nnz + 1, 3, dtype=idx)
    indices, data = np.empty(nnz, dtype=idx), np.empty(nnz)

    # vertex rows: the diagonal, then the ends at the vertex by edge
    diag = indptr[:nv]
    indices[diag] = np.arange(nv)
    data[diag] = np.bincount(end_vertex, weights=end_cell, minlength=nv)
    off = np.ones(indptr[nv], dtype=bool)
    off[diag] = False
    order = np.argsort(end_vertex, kind="stable")
    indices[:indptr[nv]][off] = end_inner[order]
    data[:indptr[nv]][off] = -end_cell[order]

    # interior rows: the nodes before and after along the edge, written
    # straight into the CSR arrays
    node = grid.dof_node[nv:]
    cols, vals = indices[indptr[nv]:].reshape(-1, 3), data[indptr[nv]:].reshape(-1, 3)
    cols[:, 0] = grid.node_dof[node - 1]
    cols[:, 1] = np.arange(nv, ndof, dtype=idx)
    cols[:, 2] = grid.node_dof[node + 1]
    c = np.repeat(cell, np.diff(grid.edge_start) - 2)
    np.negative(c, out=vals[:, 0])
    np.add(c, c, out=vals[:, 1])
    np.negative(c, out=vals[:, 2])
    # an edge's last interior node: the head vertex sorts before it
    last = np.flatnonzero(cols[:, 2] < nv)
    b, a = cols[last, 0], cols[last, 2]
    cols[last] = np.column_stack((np.minimum(b, a), np.maximum(b, a), cols[last, 1]))
    vals[last, 1], vals[last, 2] = vals[last, 2], vals[last, 1]
    mat = sparse.csr_matrix((data, indices, indptr), shape=(ndof, ndof))
    mat.has_canonical_format = True
    return mat


def assemble_mass(grid: Grid) -> sparse.csr_matrix:
    """Lumped mass as a CSR matrix: diagonal of trapezoid weights, so
    1^T M f = integrate(f)."""
    return sparse.diags(grid.weights).tocsr()


class GridOperators:
    """K and the elimination structure of K + diag(d) on one grid.

    Built once per grid (``Grid.operators``).  Vertex DOFs come first and
    each edge's interior DOFs are contiguous, so the interior block of K is
    one tridiagonal with a zero coupling between consecutive edges, the
    vertex block is diagonal, and K couples an edge's first interior node to
    its tail vertex and its last interior node to its head vertex, each with
    -1/h.  The vertex Schur complement therefore has the graph-Laplacian
    pattern: its diagonal plus (tail, head) of every edge.
    """

    def __init__(self, grid: Grid):
        K = grid.stiffness
        nv = len(grid.graph.vertex_ids)
        self.K = K
        self.ndof = grid.ndof
        self.nv = nv
        self.ni = grid.ndof - nv
        # K's diagonal, stored with the _PAD unit rows that close the
        # interior tridiagonal T (see below), so from nv on it is T's
        self._kdiag_pad = np.concatenate((K.diagonal(), np.ones(_PAD)))
        self.kdiag = self._kdiag_pad[:grid.ndof]
        # as scipy sums abs(K) along its rows
        self.abs_row_sum = np.add.reduceat(np.abs(K.data), K.indptr[:-1])
        # interior tridiagonal of K (rows nv..ndof-1), closed by _PAD
        # decoupled unit rows: scipy's dgttrf wrapper needs n >= 3, and an
        # edge of two cells has a single interior node; K holds 0 between
        # the last interior node of one edge and the first of the next
        self.t_off = np.concatenate((K.diagonal(1)[nv:], [0.0, 0.0]))
        tail_node, head_node = grid.edge_start[:-1], grid.edge_start[1:] - 1
        tail, head = grid.node_dof[tail_node], grid.node_dof[head_node]
        first, last = grid.node_dof[tail_node + 1] - nv, grid.node_dof[head_node - 1] - nv
        coupling = -1.0 / grid.edge_h
        # the two ends of every edge, tail ends first: the vertex, the
        # interior row K couples it to, and the coupling -1/h
        self.end_vertex = np.concatenate((tail, head))
        self.end_row = np.concatenate((first, last))
        self.end_coupling = np.concatenate((coupling, coupling))
        interior = np.diff(grid.edge_start) - 2
        self.tail_of = np.repeat(tail, interior)  # per interior DOF
        self.head_of = np.repeat(head, interior)
        # K_IV as two columns, each edge's coupling to its tail / head vertex
        self.ends = np.zeros((self.ni + _PAD, 2), order="F")
        self.ends[first, 0] = coupling
        self.ends[last, 1] = coupling
        vs, ev = np.arange(nv), self.end_vertex
        self._rows = np.concatenate((vs, ev, ev))
        self._cols = np.concatenate((vs, tail, tail, head, head))
        # the bordered Schur complement has nv + 1 rows
        self.dense = nv < _DENSE_ROWS
        self._schur = self._pattern(self._rows, self._cols, nv)
        # the work of every factorization on this grid (see factor, KPlusDiag)
        self.factorizations = 0
        self.pivoted_interiors = 0

    @cached_property
    def _bordered(self):
        """The Schur pattern bordered by one dense last row and column."""
        nv, ev = self.nv, self.end_vertex
        vs, b, e = np.arange(nv), np.full(nv, nv), np.full(len(ev), nv)
        return self._pattern(np.concatenate((self._rows, vs, ev, b, e, [nv])),
                             np.concatenate((self._cols, b, e, vs, ev, [nv])), nv + 1)

    def _pattern(self, rows: np.ndarray, cols: np.ndarray, n: int):
        """Where each (row, col) entry given of an n x n Schur complement is
        summed: its index in the column-major dense matrix, or a CSC matrix
        and its data slot (see _csc_pattern)."""
        index = cols * n + rows
        return index if self.dense else _csc_pattern(index, n)

    def couple(self, x_interior: np.ndarray) -> np.ndarray:
        """K_VI x_I: the interior values' contribution to the vertex rows."""
        return np.bincount(self.end_vertex, weights=self.end_coupling * x_interior[self.end_row],
                           minlength=self.nv)

    def factor(self, d: np.ndarray, border: np.ndarray | None = None) -> "KPlusDiag":
        """Factor K + diag(d) for any real d, or the matrix bordered by
        [[K + diag(d), border], [border^T, 0]]; raises LinearSolveFailure.
        Every call adds 1 to ``factorizations``, a failed one too."""
        self.factorizations += 1
        return KPlusDiag(self, np.asarray(d, dtype=float), border)


def _csc_pattern(index: np.ndarray, n: int):
    """An n x n CSC matrix holding every entry given by its column-major
    index, zero-filled, and the data slot of each (repeated entries share
    a slot)."""
    keys, slot = np.unique(index, return_inverse=True)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=n))))
    mat = sparse.csc_matrix((np.zeros(len(keys)), (keys % n).astype(np.intc),
                             indptr.astype(np.intc)), shape=(n, n))
    return mat, slot


def _dense(index: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix, Fortran-ordered, whose entry at column-major
    ``index[k]`` is the sum of ``vals[k]``, added in order."""
    return np.bincount(index, weights=vals, minlength=n * n).reshape(n, n).T


class KPlusDiag:
    """K + diag(d) factored by elimination of the edge interiors.

    The interior tridiagonal T is factored as LDL^T by LAPACK dpttrf, and
    falls back to the partially pivoted LU of dgttrf only when dpttrf meets
    a nonpositive pivot (``pivoted`` says which ran, and each fallback adds
    1 to ``GridOperators.pivoted_interiors``, a failed one too).  T is
    positive definite for every shift d >= 0, so only some indefinite Newton
    Jacobians pivot.  One substitution gives Z = T^-1 C, C = [K_IV,
    border_I], each edge's response to its tail and its head vertex (and to
    the border).  The vertex Schur complement S = A_VV - K_VI Z is summed
    into the grid's prebuilt pattern, in the same order on either path, and
    factored by LAPACK dgetrf while it has at most _DENSE_ROWS rows (about
    2 us at |V| <= 11, where SuperLU takes about 50 us; the two cost the
    same near |V| = 100), by SuperLU above.  A zero interior pivot, a
    singular S or a nonfinite solution raise LinearSolveFailure.  The
    reduced unknowns x_R are the vertex values, plus the border multiplier
    when bordered.
    """

    def __init__(self, ops: GridOperators, d: np.ndarray, border: np.ndarray | None):
        nv = ops.nv
        self.ops = ops
        self.d = d
        ld, le, info = lapack.dpttrf(self._interior_diag(), ops.t_off, overwrite_d=True)
        self.pivoted = info > 0
        if self.pivoted:
            ops.pivoted_interiors += 1
            # dpttrf has overwritten the diagonal it stopped in
            *tlu, info = lapack.dgttrf(ops.t_off, self._interior_diag(), ops.t_off,
                                       overwrite_d=True)
            if info > 0:
                raise LinearSolveFailure(f"zero pivot at interior row {info - 1}")
            self._t_solve = lambda b: lapack.dgttrs(*tlu, b, overwrite_b=True)[0]
        else:
            self._t_solve = lambda b: lapack.dpttrs(ld, le, b, overwrite_b=True)[0]
        if border is None:
            cols = ops.ends.copy(order="F")
        else:
            cols = np.zeros((ops.ni + _PAD, 3), order="F")
            cols[:, :2], cols[:ops.ni, 2] = ops.ends, border[nv:]
        z = self._z = self._t_solve(cols)[:ops.ni]
        # -K_VI Z, one row per edge end
        coupled = -ops.end_coupling[:, None] * z[ops.end_row]
        vals = [ops.kdiag[:nv] + d[:nv], coupled[:, 0], coupled[:, 1]]
        self._border = border
        pattern = ops._schur
        if border is not None:
            pattern = ops._bordered
            vals += [border[:nv], coupled[:, 2], border[:nv], coupled[:, 2],
                     [-(border[nv:] @ z[:, 2])]]
        self._vals = np.concatenate(vals)
        if ops.dense:
            # dgetrf factors a copy: S stays for the inertia count
            self._s = _dense(pattern, self._vals, nv + (border is not None))
            lu, piv, info = lapack.dgetrf(self._s)
            if info > 0:
                raise LinearSolveFailure(
                    f"vertex Schur complement: exactly singular (zero pivot in column {info - 1})")
            self._schur_solve = lambda r: lapack.dgetrs(lu, piv, r)[0]
        else:
            # every factorization of this grid fills the same pattern; SuperLU
            # copies what it keeps, so the data array is scratch space
            schur, slot = pattern
            schur.data[:] = np.bincount(slot, weights=self._vals, minlength=schur.nnz)
            try:
                self._schur_solve = spla.splu(schur).solve
            except RuntimeError as exc:
                raise LinearSolveFailure(f"vertex Schur complement: {exc}") from exc

    def _interior_diag(self) -> np.ndarray:
        """A new array holding T's diagonal: K's interior diagonal plus d,
        closed by _PAD ones."""
        ops = self.ops
        diag = ops._kdiag_pad[ops.nv:].copy()
        diag[:ops.ni] += self.d[ops.nv:]
        return diag

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (K + diag(d)) x = b (length ndof, or ndof + 1 when bordered).

        Block elimination with one interior substitution: T y = b_I, then
        S x_R = b_R - C^T y, then x_I = y - Z x_R, with Z = T^-1 C kept from
        the factorization.  x is formed in one array: the interior rows of b,
        padded for T, are substituted in place and then updated to x_I.
        """
        ops, z, border = self.ops, self._z, self._border
        nv, n, ni = ops.nv, ops.ndof, ops.ni
        x = np.concatenate((b[:n], _ZEROS))
        y = self._t_solve(x[nv:])[:ni]
        r = x[:nv] - ops.couple(y)
        if border is not None:
            r = np.append(r, b[n] - border[nv:] @ y)
        xr = self._schur_solve(r)
        # y - (Z_tail x_tail + Z_head x_head), in that order
        zx = xr[ops.tail_of]
        zx *= z[:, 0]
        head = xr[ops.head_of]
        head *= z[:, 1]
        zx += head
        y -= zx
        x[:nv] = xr[:nv]
        if border is not None:
            y -= z[:, 2] * xr[nv]
            x[n] = xr[nv]
        x = x[:len(b)]
        if not np.isfinite(x).all():
            raise LinearSolveFailure("nonfinite solution")
        return x

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x for the factored matrix A, K + diag(d) or its bordered form,
        for a posteriori residual checks.  The sums are formed in the output
        array, in the order K x + d x + border x_last."""
        border = self._border
        if border is None:
            ax = self.ops.K @ x
            ax += self.d * x
            return ax
        y = x[:self.ops.ndof]
        ax = np.append(self.ops.K @ y, border @ y)
        ay = ax[:-1]
        ay += self.d * y
        ay += border * x[-1]
        return ax

    @cached_property
    def _row_norm(self) -> float:
        """|| |A| ||_inf, formed on the first checked solve; the border adds
        |border| to every row and a row of its own."""
        rows = np.abs(self.d)
        rows += self.ops.abs_row_sum
        if self._border is None:
            return float(np.max(rows))
        edge = np.abs(self._border)
        rows += edge
        return max(float(np.max(rows)), float(np.sum(edge)))

    def solve_checked(self, b: np.ndarray) -> np.ndarray:
        """solve(b), verified a posteriori: the residual must stay within
        10 LINEAR_RTOL of max(|b|, || |A| || |x|), since backward-stable
        roundoff scales with |A| |x|, not just |b|; raises
        LinearSolveFailure."""
        x = self.solve(b)
        scale = max(float(np.max(np.abs(b))), self._row_norm * float(np.max(np.abs(x))), 1e-300)
        r = self.matvec(x)
        r -= b
        resid = float(np.max(np.abs(r, out=r)))
        if resid > LINEAR_RTOL * scale * 10.0:
            raise LinearSolveFailure(f"shifted solve residual {resid} vs scale {scale}")
        return x

    def negative_eigenvalues(self) -> int:
        """How many eigenvalues of K + diag(d) are negative (unbordered only).

        By Sylvester's law of inertia the count is that of the interior
        tridiagonal T, by bisection, plus that of the dense vertex Schur
        complement S, which is the count of the block diagonal D of its
        Bunch-Kaufman LDL^T: D's 1 x 1 blocks and the eigenvalues of its
        2 x 2 blocks.
        """
        ops = self.ops
        interior = eigvalsh_tridiagonal(self._interior_diag(), ops.t_off, select="v",
                                        select_range=(-np.inf, 0.0))
        s = (self._s.copy() if ops.dense
             else _dense(ops._cols * ops.nv + ops._rows, self._vals, ops.nv))
        _, blocks, _ = ldl(s, overwrite_a=True)
        # a 2 x 2 block starts wherever D has a nonzero superdiagonal entry
        two = np.flatnonzero(np.diagonal(blocks, 1))
        single = np.ones(ops.nv, dtype=bool)
        single[two] = single[two + 1] = False
        pair = two[:, None] + np.arange(2)
        pair_eig = np.linalg.eigvalsh(blocks[pair[:, :, None], pair[:, None, :]])
        return (len(interior) + int(np.sum(np.diagonal(blocks)[single] < 0.0))
                + int(np.sum(pair_eig < 0.0)))


def _check_function(grid: Grid, f: GridFunction, name: str) -> None:
    if not grids_compatible(grid, f.grid):
        raise GridMismatch(f"{name} lives on a different grid")


def solve_shifted(grid: Grid, k: GridFunction, rhs: GridFunction) -> GridFunction:
    """Solve (K + M_k) u = -M rhs, the weak form of d2u - k u = rhs.

    Requires min k > 0.  Inherits a discrete maximum principle: rhs <= 0
    everywhere implies u >= 0 everywhere.  The solve is checked a posteriori
    (``KPlusDiag.solve_checked``).
    """
    _check_function(grid, rhs, "rhs")
    _check_function(grid, k, "k")
    kmin = float(np.min(k.values))
    if kmin <= 0.0:
        raise NonpositiveShift(f"min k = {kmin}; need k > 0 for an invertible M-matrix")
    lu = grid.operators.factor(grid.weights * k.values)
    return GridFunction(grid, lu.solve_checked(-(grid.weights * rhs.values)))


def solve_poisson_meanzero(grid: Grid, rhs: GridFunction) -> GridFunction:
    """Solve K m = -M rhs (weak d2m = rhs) for the unique mean-zero m.

    The right-hand side must be compatible (integrate(rhs) ~ 0).  The mean
    constraint is imposed by bordering K with the weight vector — one extra
    symmetric row/column, no pinned DOF.  The solve is checked a posteriori
    (``KPlusDiag.solve_checked``).
    """
    _check_function(grid, rhs, "rhs")
    total = grid.total_length
    ir = integrate(rhs)
    l1 = float(grid.weights @ np.abs(rhs.values))
    # the absolute term keeps roundoff-level data (rhs ~ eps) from tripping a
    # check that exists to catch genuinely incompatible inputs
    if abs(ir) > 1e-8 * l1 + 1e-14 * total:
        raise IncompatibleRHS(f"integrate(rhs) = {ir!r} but a pure-flux problem needs 0")

    w = grid.weights
    n = grid.ndof
    b = np.append(w * rhs.values, 0.0)
    np.negative(b[:n], out=b[:n])
    # the zero shift as a read-only view of one zero, not n stored zeros
    m = grid.operators.factor(np.broadcast_to(0.0, n), border=w).solve_checked(b)[:n]
    m -= (w @ m) / total  # strip the roundoff-level mean
    return GridFunction(grid, m)


@dataclass(frozen=True)
class ResidualReport:
    """Weak residual of the full equation at (u, h, c)."""

    weak_residual_norm: float
    residual: np.ndarray


def residual_vector(grid: Grid, u: np.ndarray, h: np.ndarray, c: float) -> np.ndarray:
    """r = K u + c M 1 - M (h * exp(u)) on raw DOF vectors; nonfinite
    exactly where exp(u) overflows."""
    return _residual_terms(grid, u, h, c)[0]


def _residual_terms(grid: Grid, u: np.ndarray, h: np.ndarray, c: float):
    """(residual_vector, w h e^u): the residual and the product it subtracts."""
    # where e^u overflows at a node with h = 0, h e^u is NaN: nonfinite all the same
    with np.errstate(over="ignore", invalid="ignore"):
        # K u + c w - w (h e^u), each sum formed in r and each product in he
        r = grid.stiffness @ u
        r += c * grid.weights
        he = np.exp(u)
        he *= h
        he *= grid.weights
        r -= he
    return r, he


def apply_residual(u: GridFunction, h: GridFunction, c: float) -> ResidualReport:
    """Residual r = K u + c M 1 - M (h exp(u)) of the weak equation.

    weak_residual_norm is max |r_i| / weight_i, which scales like the
    pointwise defect d2u - c + h exp(u).
    """
    if not grids_compatible(u.grid, h.grid):
        raise GridMismatch("u and h live on different grids")
    grid = u.grid
    r = residual_vector(grid, u.values, h.values, c)
    return ResidualReport(
        weak_residual_norm=float(np.max(np.abs(r) / grid.weights)),
        residual=r,
    )
