"""Independent checks on computed solutions.

Everything here recomputes from the assembly primitives rather than trusting
solver internals: integral identities a solution must satisfy, a
finite-difference probe of the variational gradients, manufactured problems
with a known exact discrete solution, and a damped-Newton oracle that solves
the full nonlinear system with no knowledge of the variational structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .assembly import assemble_stiffness
from .errors import Diverged, GridMismatch, KirchhoffDefect, ResolutionTooCoarse
from .graph import GridFunction, exp_weighted_energy, grids_compatible, integrate
from .solvers import Solution, SolveReport

_FUNCTIONALS = ("zero", "positive", "critical")
ORACLE_MAX_ITER = 100


@dataclass(frozen=True)
class IdentityReport:
    """Integral identities of a solution: mass always, energy when c = 0.

    The energy identity comes in two forms.  The midpoint form is the
    continuum identity, which the P1 solution meets only to O(h^2); the
    discrete form is the same identity as the scheme states it, which a
    discrete solution meets to roundoff.
    """

    mass_value: float  # int h e^u
    mass_target: float  # c |G|
    mass_defect: float
    energy_value: float | None  # int |du|^2 e^(-u), midpoint weights
    energy_target: float | None  # -int h
    energy_defect: float | None  # O(h^2) for a discrete solution
    discrete_energy_value: float | None  # sum_cells (d/l)(e^(-u_L) - e^(-u_R))
    discrete_energy_defect: float | None  # against energy_target, roundoff


@dataclass(frozen=True)
class FDGradientReport:
    analytic: float
    finite_difference: float
    abs_error: float
    rel_error: float
    step: float


def identity_report(u: GridFunction, h: GridFunction, c: float) -> IdentityReport:
    """Integrating the equation gives int h e^u = c |G|; testing it against
    e^(-u) gives int |du|^2 e^(-u) = -int h when c = 0.

    In the scheme, testing K u = M h e^u against e^(-u) and summing by parts
    over the cells gives sum_cells (d/l)(e^(-u_L) - e^(-u_R)) = -sum w h
    exactly, with d = u_R - u_L and l the cell length: the discrete form.
    Where e^u or e^(-u) overflows, the values are infinite or NaN, which
    fail every bound, and no warning is raised.
    """
    if not grids_compatible(u.grid, h.grid):
        raise GridMismatch("u and h live on different grids")
    grid = u.grid
    target = c * grid.total_length
    with np.errstate(over="ignore", invalid="ignore"):
        mass = float(grid.weights @ (h.values * np.exp(u.values)))
        if c != 0.0:
            return IdentityReport(mass, target, abs(mass - target), None, None, None, None, None)
        energy = exp_weighted_energy(u)
        etarget = -integrate(h)
        left, right = u.values[grid.cell_tail], u.values[grid.cell_head]
        discrete = float(((right - left) / grid.cell_h) @ (np.exp(-left) - np.exp(-right)))
    return IdentityReport(mass, target, abs(mass - target), energy, etarget,
                          abs(energy - etarget), discrete, abs(discrete - etarget))


def fd_gradient_check(functional: str, u: GridFunction, phi: GridFunction,
                      eps: float, *, h: GridFunction | None = None,
                      c: float | None = None) -> FDGradientReport:
    """Compare the analytic directional derivative of a solver functional
    against a centered finite difference along phi.

    "zero": 1/2 int |du|^2; "positive": adds c int u; "critical": adds
    c int u - int h e^u.  The latter two need c (and "critical" needs h).
    """
    if functional not in _FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}; expected one of {_FUNCTIONALS}")
    if not grids_compatible(u.grid, phi.grid):
        raise GridMismatch("u and phi live on different grids")
    if eps <= 0.0 or not math.isfinite(eps):
        raise ValueError("eps must be a positive finite step")
    if functional in ("positive", "critical") and c is None:
        raise ValueError(f"functional {functional!r} needs c")
    if functional == "critical" and h is None:
        raise ValueError("functional 'critical' needs h")
    if h is not None and not grids_compatible(u.grid, h.grid):
        raise GridMismatch("u and h live on different grids")

    grid = u.grid
    K = grid.stiffness
    w = grid.weights
    uv, pv = u.values, phi.values

    def value(x: np.ndarray) -> float:
        out = 0.5 * float(x @ (K @ x))
        if functional in ("positive", "critical"):
            out += c * float(w @ x)
        if functional == "critical":
            out -= float(w @ (h.values * np.exp(x)))
        return out

    grad = K @ uv
    if functional in ("positive", "critical"):
        grad = grad + c * w
    if functional == "critical":
        grad = grad - w * (h.values * np.exp(uv))
    analytic = float(pv @ grad)
    fd = (value(uv + eps * pv) - value(uv - eps * pv)) / (2.0 * eps)
    abs_err = abs(analytic - fd)
    rel_err = abs_err / max(abs(analytic), abs(fd), 1e-14)
    return FDGradientReport(analytic, fd, abs_err, rel_err, eps)


def _edge_end_slopes(u: GridFunction) -> tuple:
    """Second-order one-sided slopes pointing into each edge, at the tails
    and at the heads of all edges in order."""
    grid = u.grid
    v, dof = u.values, grid.node_dof
    t, h = grid.edge_start[:-1], grid.edge_start[1:] - 1
    tail = (-3.0 * v[dof[t]] + 4.0 * v[dof[t + 1]] - v[dof[t + 2]]) / (2.0 * grid.edge_h)
    head = (-3.0 * v[dof[h]] + 4.0 * v[dof[h - 1]] - v[dof[h - 2]]) / (2.0 * grid.edge_h)
    return tail, head


def manufacture(u_star: GridFunction, c: float, *,
                kirchhoff_tol: float | None = None) -> GridFunction:
    """Build h so that u_star solves the discrete system exactly.

    Requires at least 3 cells per edge (for the one-sided slope stencil) and
    a profile whose flux balance at each vertex is small: the sum over
    incident edges of the inward slopes must vanish within kirchhoff_tol
    (default 2% of the slope scale).  Then h = (c + M^-1 K u*) e^(-u*), which
    makes the discrete residual of u_star vanish to rounding.
    """
    grid = u_star.grid
    cells = np.diff(grid.edge_start) - 1
    if np.any(cells < 3):
        j = int(np.argmax(cells < 3))
        raise ResolutionTooCoarse(
            f"edge {grid.graph.edges[j].id!r} has {cells[j]} cells; slope checks need >= 3"
        )
    tail, head = _edge_end_slopes(u_star)
    scale = max(np.max(np.abs(tail)), np.max(np.abs(head)))
    tol = kirchhoff_tol if kirchhoff_tol is not None else 0.02 * (1.0 + scale)
    # summed per vertex in edge order, tail end before head end
    net = np.bincount(grid.node_dof[grid.end_nodes], weights=np.column_stack((tail, head)).ravel(),
                      minlength=len(grid.graph.vertex_ids))
    if np.any(np.abs(net) > tol):
        i = int(np.argmax(np.abs(net) > tol))
        raise KirchhoffDefect(
            f"vertex {grid.graph.vertex_ids[i]!r}: net inward slope {net[i]:.4e} exceeds "
            f"{tol:.4e}; the profile is not compatible with the flux balance"
        )

    K = grid.stiffness
    w = grid.weights
    uv = u_star.values
    hv = (c + (K @ uv) / w) * np.exp(-uv)
    return GridFunction(grid, hv)


def oracle_newton(h: GridFunction, c: float, seed: GridFunction | None = None, *,
                  tol: float = 1e-8) -> Solution:
    """Damped Newton on the full residual, blind to the variational structure.

    Levenberg ridge fallback when the Jacobian solve is unusable, Armijo
    backtracking on the inverse-mass residual norm, Diverged when no
    acceptable step exists or ORACLE_MAX_ITER steps do not converge;
    ValueError unless tol is positive and finite.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    grid = h.grid
    if seed is None:
        u = np.zeros(grid.ndof)
    else:
        if not grids_compatible(grid, seed.grid):
            raise GridMismatch("seed lives on a different grid")
        u = seed.values.copy()
    K = assemble_stiffness(grid)
    w = grid.weights
    hv = h.values
    ctol = tol * (1.0 + abs(c))

    def residual(x):
        # nonfinite where e^x overflows, NaN where h = 0 there too
        with np.errstate(over="ignore", invalid="ignore"):
            return K @ x + c * w - w * (hv * np.exp(x))

    def weak_norm(r):
        return float(np.max(np.abs(r) / w))

    r = residual(u)
    wn = weak_norm(r)
    it = 0  # Newton steps taken
    while not wn <= ctol:  # a NaN residual has not converged
        if it == ORACLE_MAX_ITER:  # the iterate of the last step was tested above
            raise Diverged(f"no convergence in {ORACLE_MAX_ITER} iterations (residual {wn:.3e})")
        it += 1
        with np.errstate(over="ignore"):
            eu = np.exp(u)
        jac = (K - sparse.diags(w * hv * eu)).tocsc()
        d = None
        try:
            d = spla.splu(jac).solve(-r)
            if not np.all(np.isfinite(d)):
                d = None
            elif float(np.max(np.abs(jac @ d + r))) > 1e-8 * (float(np.max(np.abs(r))) + 1e-300):
                d = None
        except RuntimeError:
            d = None
        if d is None:
            tau = 1e-10 * (1.0 + float(np.max(np.abs(jac.diagonal()))))
            while tau < 1e14:
                try:
                    d = spla.splu((jac + tau * sparse.diags(w)).tocsc()).solve(-r)
                    if np.all(np.isfinite(d)):
                        break
                except RuntimeError:
                    pass
                d = None
                tau *= 100.0
            if d is None:
                raise Diverged(f"no usable Newton direction at iteration {it}")
        merit = float(r @ (r / w))
        alpha = 1.0
        moved = False
        while alpha >= 1e-12:
            ut = u + alpha * d
            rt = residual(ut)
            if np.all(np.isfinite(rt)):
                with np.errstate(over="ignore"):
                    mt = float(rt @ (rt / w))
                if math.isfinite(mt) and mt <= (1.0 - 2e-4 * alpha) * merit:
                    u, r = ut, rt
                    wn = weak_norm(r)
                    moved = True
                    break
            alpha *= 0.5
        if not moved:
            raise Diverged(f"line search failed at iteration {it} (residual {wn:.3e})")

    mass = float(w @ (hv * np.exp(u)))
    report = SolveReport(
        method="newton-oracle",
        iterations=it,
        final_residual=wn,
        identity_checks={"mass_defect": abs(mass - c * grid.total_length)},
    )
    return Solution(GridFunction(grid, u), report)
