"""Three-regime solvers for d2u = c - h exp(u) on a metric-graph grid.

The sign of c decides the machinery:

* c = 0: minimize the Dirichlet energy over the constraint set
  {int v = 0, int h e^v = 0}; the Lagrange multiplier of the constraint
  gives the additive shift that turns the minimizer into a solution.
* c > 0: minimize 1/2 int |du|^2 + c int u over {int h e^u = c |G|}; the
  projection onto the constraint is an explicit constant shift and the
  multiplier is 1 at the minimizer.

  Both start from the positive part of h on the edge where h is largest,
  scaled onto the constraint, and run one projected-gradient descent in
  the H1 Riesz metric.  Damped Newton on the full equation finishes it
  whenever the residual has fallen tenfold; its root is kept only when it
  satisfies the constraint, lowers the value and is a minimum, not a
  saddle.
* c < 0: monotone iteration squeezed between a constant lower solution and an
  upper solution.  For c >= implied_c that is the constructed u+ = a m + b,
  m the solution of a compatible flux problem driven by h minus its mean;
  the shift of the sweeps is refreshed from the iterate every few sweeps.  A
  damped-Newton tail at the solve's own tolerance is tried right after the
  first sweep, and once more if the sweeps then stall at roundoff above
  that tolerance; its root is kept only between u- and the latest sweep.
  Below implied_c one walk of the solution branch, in (u, c) with the mean
  of u as parameter, supplies the rest: a point on it at c_psi < c is a
  strict upper solution at c, and its fold is both the solvability
  threshold and the solution of the critical case c = c*.

All iterations report residuals in the pointwise-defect scale of
``apply_residual`` (max |r_i| / weight_i), and all stop on the one bound
of their solve, ``_Workspace.ctol(c)`` = tol (1 + |c|).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .assembly import _residual_terms, residual_vector, solve_poisson_meanzero
from .errors import (
    BoundBlowup,
    FeasibilityFailure,
    GridMismatch,
    HNotNonpositive,
    IntegralNotNegative,
    LinearSolveFailure,
    MarginTooLarge,
    NoConvergence,
    NotSolvable,
    NoUpperSolutionFound,
    OrderingViolated,
)
from .graph import (
    Grid,
    GridFunction,
    _read_only,
    constant,
    exp_weighted_energy,
    grids_compatible,
    integrate,
    norms,
)

DEFAULT_TOL = 1e-8
EPS = float(np.finfo(float).eps)
MAX_ITER_GRADIENT = 5000
MAX_ITER_MONOTONE = 500
MAX_ITER_NEWTON = 60
SHIFT_REFRESH = 5
# floor of the monotone shift, relative to max(-h): keeps k > 0 where h >= 0
SHIFT_FLOOR = 1e-2
ARMIJO_START = 1.0
ARMIJO_FACTOR = 0.5
ARMIJO_DECREASE = 1e-4

NECESSARY_OK = "NecessaryOK"
VIOLATES = "Violates"


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class SolvabilityVerdict:
    """Outcome of the necessary-condition checks for (h, c)."""

    status: str  # NecessaryOK | Violates
    reason: str  # HZeroEverywhere | HDoesNotChangeSign | IntegralHNonneg | HNowherePositive | none
    integral_h: float
    max_h: float
    min_h: float

    @property
    def ok(self) -> bool:
        return self.status == NECESSARY_OK


@dataclass
class SolveReport:
    method: str
    status: str = "Converged"
    iterations: int = 0
    final_residual: float = math.nan
    multiplier: float | None = None
    functional_value: float | None = None
    identity_checks: dict = field(default_factory=dict)
    monotone_history: list | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "status": self.status,
            "iterations": self.iterations,
            "final_residual": self.final_residual,
            "multiplier": self.multiplier,
            "functional_value": self.functional_value,
            "identity_checks": dict(self.identity_checks),
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class Solution:
    u: GridFunction
    report: SolveReport


@dataclass(frozen=True)
class ThresholdEstimate:
    """Bracket for the solvability threshold in c < 0.

    ``c_hi`` is certified solvable by monotone iteration; ``c_lo`` lies below
    the computed fold ``details["c_star"]`` of the solution branch, which is
    its evidence of unsolvability.  When h <= 0 everywhere the threshold is
    minus infinity and the bracket is absent.  ``critical`` is (h, the
    ``_Fold`` of this bracket) for solve_critical, None when hand-made.
    """

    minus_infinity: bool
    c_lo: float | None
    c_hi: float | None
    analytic_upper_bound: float | None
    details: dict = field(default_factory=dict)
    critical: tuple | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class UpperSolutionParams:
    """Constructed upper solution u+ = a m + b and the c it certifies."""

    m: GridFunction
    a: float
    b: float
    implied_c: float

    def u_plus(self) -> GridFunction:
        return GridFunction(self.m.grid, _read_only(self.a * self.m.values + self.b))


@dataclass
class SolveCounts:
    """Factorizations of K + diag(d), and those whose interior tridiagonal
    fell back to pivoted LU (failed ones too), made by one solver call.

    The grid's ``GridOperators`` counts every factorization made on it; a
    caller totals the work of several calls, failed ones included, from
    ``h.grid.operators.factorizations`` before and after them.
    """

    factorizations: int = 0
    pivoted_interiors: int = 0


# ---------------------------------------------------------------------------
# shared machinery


def _check_positive(name: str, value: float) -> None:
    """ValueError naming ``name`` unless ``value`` is positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class _Workspace:
    """The discrete problem K u + c w - w h e^u = 0 of one solve: grid, K,
    weights w, the values of h, |G| and its tol (ValueError, before the grid
    is touched, unless positive and finite).  It forms the residual, the
    Jacobian shift, the mass and ``ctol``, the stopping bound of every
    residual test.  ``counts`` is the work of the grid's operators since the
    workspace was made: every factorization of the solve, monotone sweeps
    and the flux solve of build_upper(_hneg) included, failed ones too.  No
    other workspace factors on the grid meanwhile.  Making a workspace
    builds neither K nor the operators, so a solver that rejects its input
    after making one leaves the grid as it was."""

    def __init__(self, h: GridFunction, tol: float = DEFAULT_TOL):
        _check_positive("tol", tol)
        self.h, self.tol = h, tol
        self.grid = grid = h.grid
        self.hv = h.values
        self.w = grid.weights
        self.wh = self.w * self.hv
        self.total = grid.total_length
        # operators not built yet have made no factorization
        ops = vars(grid).get("operators")
        self._start = (ops.factorizations, ops.pivoted_interiors) if ops else (0, 0)

    @property
    def K(self):
        return self.grid.stiffness

    @property
    def counts(self) -> SolveCounts:
        ops = self.grid.operators
        return SolveCounts(ops.factorizations - self._start[0],
                           ops.pivoted_interiors - self._start[1])

    def ctol(self, c: float) -> float:
        """The bound on the weak residual at c that ends the solve."""
        return self.tol * (1.0 + abs(c))

    def residual(self, u: np.ndarray, c: float) -> np.ndarray:
        """r = K u + c w - w h e^u; nonfinite exactly where e^u overflows."""
        return residual_vector(self.grid, u, self.hv, c)

    def jacobian_shift(self, u: np.ndarray) -> np.ndarray:
        """-w (h e^u), as the residual rounds it: the Jacobian is K + diag(this)."""
        return -(self.w * (self.hv * np.exp(u)))

    def linearize(self, u: np.ndarray, c: float):
        """(residual(u, c), jacobian_shift(u)) from one e^u."""
        r, he = _residual_terms(self.grid, u, self.hv, c)
        return r, np.negative(he, out=he)

    def mass(self, u: np.ndarray) -> float:
        """int h e^u, with e^u saturating at e^700 instead of overflowing."""
        with np.errstate(over="ignore"):
            return float(self.w @ (self.hv * np.exp(np.minimum(u, 700.0))))

    def factor(self, d: np.ndarray, border: np.ndarray | None = None):
        """Factor K + diag(d), bordered by ``border`` when given; raises
        LinearSolveFailure."""
        return self.grid.operators.factor(d, border)

    def weak_norm(self, r: np.ndarray) -> float:
        return float(np.max(np.abs(r) / self.w))

    def floor(self, u: np.ndarray, c: float) -> float:
        """The rounding bound of the weak residual at (u, c): row i sums k =
        nnz_i + 2 terms, so its computed value is off by at most k eps times
        the sum of their absolute values (Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 3), here divided by w_i."""
        terms = abs(self.K) @ np.abs(u) + self.w * (abs(c) + np.abs(self.hv) * np.exp(u))
        return float(np.max((np.diff(self.K.indptr) + 2) * EPS * terms / self.w))


def classify(h: GridFunction, c: float) -> SolvabilityVerdict:
    """Check the necessary solvability conditions for the regime of c.

    c = 0 requires h to change sign with int h < 0; c > 0 requires h positive
    somewhere; c < 0 requires int h < 0.  For c < 0 with sign-changing h,
    NecessaryOK means "possibly solvable" — the threshold decides.
    """
    hv = h.values
    ih = integrate(h)
    mx = float(np.max(hv))
    mn = float(np.min(hv))

    def verdict(status, reason):
        return SolvabilityVerdict(status, reason, ih, mx, mn)

    if mx == 0.0 and mn == 0.0:
        return verdict(VIOLATES, "HZeroEverywhere")
    if c == 0.0:
        if not (mx > 0.0 and mn < 0.0):
            return verdict(VIOLATES, "HDoesNotChangeSign")
        if ih >= 0.0:
            return verdict(VIOLATES, "IntegralHNonneg")
        return verdict(NECESSARY_OK, "none")
    if c > 0.0:
        if mx <= 0.0:
            return verdict(VIOLATES, "HNowherePositive")
        return verdict(NECESSARY_OK, "none")
    if ih >= 0.0:
        return verdict(VIOLATES, "IntegralHNonneg")
    return verdict(NECESSARY_OK, "none")


def _bump(grid: Grid, h: GridFunction) -> GridFunction:
    """Start direction of the c >= 0 solvers: the positive part of h on the
    interior nodes of the edge attaining the maximum of h (lowest-indexed
    edge on ties), divided by its largest value there, and 0 everywhere
    else; when no interior node of that edge has h > 0, the hat of the DOF
    where h is largest.  So wb > 0 only where h > 0, and max wb = 1.
    """
    maxima = np.maximum.reduceat(h.values[grid.node_dof], grid.edge_start[:-1])
    best = int(np.argmax(maxima))
    if maxima[best] <= 0.0:
        raise FeasibilityFailure("h has no positive part to concentrate a bump on")
    interior = grid.node_dof[grid.edge_start[best] + 1:grid.edge_start[best + 1] - 1]
    top = float(np.max(h.values[interior], initial=0.0))
    out = np.zeros(grid.ndof)
    if top > 0.0:
        out[interior] = np.maximum(h.values[interior], 0.0) / top
    else:
        out[int(np.argmax(h.values))] = 1.0
    return GridFunction(grid, _read_only(out))


def _along_bump(ws: _Workspace, v, wb: np.ndarray, target: float = 0.0, alpha: float = 0.0):
    """Scalar Newton in a for int h e^(v + a wb) = target from a = alpha:
    (a, x = v + a wb) once |int h e^x - target| <= max(1e-14, 2 eps max|x|)
    int |h| e^x, the second term the roundoff of e^x (one ulp of x moves e^x
    by eps |x|); None when e^x overflows, the slope is not positive, a moves
    by more than 500 or 100 steps do not settle.  As _bump makes wb > 0 only
    where h > 0, the left side is increasing and convex in a, so from above
    target the steps fall monotonically onto the root and never pass it."""
    w, hv, a = ws.w, ws.hv, alpha
    cur = v + a * wb if a else v
    for _ in range(100):
        with np.errstate(over="ignore"):
            ev = np.exp(cur)
        if not np.all(np.isfinite(ev)):
            return None
        g = float(w @ (hv * ev)) - target
        scale = float(w @ (np.abs(hv) * ev)) + 1e-300
        if abs(g) <= max(1e-14, 2.0 * EPS * float(np.max(np.abs(cur)))) * scale:
            return a, cur
        d = float(w @ (hv * wb * ev))
        if not (d > 0.0) or not math.isfinite(d):
            return None
        a += max(-50.0, min(50.0, -g / d))
        if abs(a - alpha) > 500.0:
            return None
        cur = v + a * wb
    return None


def _bump_scale(ws: _Workspace, wb, target: float) -> float:
    """The scale l > 0 at which int h e^(l wb) reaches ``target`` (above
    int h), by Newton along the bump from l_hi = log1p((target - int h) /
    (w_j h_j)), j where wb = 1.  As wb <= 1 and h > 0 wherever wb > 0, the
    mass at l is at least int h + w_j h_j (e^l - 1): l_hi lies at or above
    the root, at most ln(number of bump nodes) above it, and is the root when
    wb is one node's hat.  FeasibilityFailure when Newton does not get there."""
    j = int(np.argmax(wb))
    hi = min(math.log1p((target - float(ws.w @ ws.hv)) / ws.wh[j]), 700.0)  # e^(l wb) finite
    found = _along_bump(ws, 0.0, wb, target, alpha=hi)
    if found is None:
        raise FeasibilityFailure(f"Newton along the bump found no l <= {hi:g} with "
                                 f"int h e^(l w) = {target:.6g}")
    return found[0]


def _armijo(value, project, x, val, d, slope):
    """Backtracking line search from x along -d, where slope = <gradient, d>.

    Returns (trial, value(trial)) for the first step eta whose projected
    trial lowers ``value`` by ARMIJO_DECREASE eta slope, up to the roundoff
    of ``val``; None when eta falls below 1e-14.  ``project`` maps a point
    back onto the constraint set, or to None when it cannot.
    """
    eta = ARMIJO_START
    noise = 1e-15 * (1.0 + abs(val))
    while eta >= 1e-14:
        trial = project(x - eta * d)
        if trial is not None:
            tval = value(trial)
            if tval <= val - ARMIJO_DECREASE * eta * slope + noise:
                return trial, tval
        eta *= ARMIJO_FACTOR
    return None


def _descend(ws: _Workspace, c: float, x: np.ndarray, method: str, *,
             value, project, step, lift):
    """Projected gradient descent on ``value`` from the feasible x, finished
    by damped Newton on the full residual at c; returns the last x, its
    solution u and the report of the descent.

    ``step(x, riesz)`` gives the solution u that x stands for (None if
    none), the weak residual of u, a descent direction d and the slope
    <gradient, d>; riesz is the factored H1 Riesz map (K + M);
    ``project`` is as in _armijo.  The descent stops when that residual is
    at most ws.ctol(c).  A Newton finish from u is tried whenever the
    residual has fallen tenfold since the start or the last try, and when
    the descent stalls; ``_refuse_minimum`` decides whether its root is kept.
    ``details["rejected_tails"]`` lists each refused finish with its
    iteration and reason: "newton_failed", "constraint", "higher_value" or
    "saddle".  NoConvergence when the descent stalls, and with its own
    message when it runs out of its MAX_ITER_GRADIENT iterations first.
    """
    # the H1 Riesz map (K + M)^(-1) turns dual residual vectors into gradient
    # directions whose quality does not degrade with the mesh
    riesz = ws.factor(ws.w)
    tol = ws.ctol(c)
    val = value(x)
    rejected = []
    wn, it, attempts = math.inf, 0, 0
    for it in range(1, MAX_ITER_GRADIENT + 1):
        u, wn, d, slope = step(x, riesz)
        if wn <= tol:
            break
        if it == 1:
            tried_at = wn  # the residual at the start, later at the last finish
        trial = _armijo(value, project, x, val, d, slope)
        # stalled: no step lowers the value beyond its roundoff, or the
        # accepted one leaves x unchanged (every later step would repeat it)
        stalled = trial is None or np.array_equal(trial[0], x)
        if wn < 0.1 * tried_at or (stalled and u is not None):
            tried_at, attempts = wn, attempts + 1
            root = _newton_finish(ws, c, u, lambda r: _refuse_minimum(ws, r, lift, value, val),
                                  rejected, iteration=it)
            if root is not None:
                u, x = root, lift(root)
                val = value(x)
                wn = ws.weak_norm(ws.residual(u, c))
                break
        if stalled:
            break
        x, val = trial
    else:
        raise NoConvergence(f"projected gradient used all {MAX_ITER_GRADIENT} iterations "
                            f"at residual {wn:.3e} (tol {tol:.1e})")
    if wn > tol:
        raise NoConvergence(f"projected gradient stalled at residual {wn:.3e} "
                            f"(tol {tol:.1e}) after {it} iterations")
    details = {"tail_attempts": attempts, "rejected_tails": rejected, **asdict(ws.counts)}
    return x, u, SolveReport(method, iterations=it, final_residual=wn, functional_value=val,
                             details=details)


def solve_zero(h: GridFunction, *, tol: float = DEFAULT_TOL) -> Solution:
    """Solve d2u = -h e^u (the c = 0 regime).

    Constrained minimization of 1/2 int |dv|^2 over
    {int v = 0, int h e^v = 0}, started from a scaled bump, by the descent
    of ``_descend``: the solution is u = v + ln(lambda), with lambda the
    constraint multiplier, and the stopping test is on the residual of that
    u, at most tol within MAX_ITER_GRADIENT iterations.  A Newton finish is
    accepted only when v = u - mean(u) keeps |int h e^v| <= tol int |h| e^v:
    from a flat seed Newton can drift to the pseudo-root u -> -infinity,
    whose residual vanishes with the constraint far from holding.
    """
    ws = _Workspace(h, tol)
    v0 = classify(h, 0.0)
    if not v0.ok:
        raise NotSolvable(f"c = 0 needs sign-changing h with negative integral ({v0.reason})")
    grid = h.grid
    w, K = ws.w, ws.K
    ih = v0.integral_h

    wb = _bump(grid, h).values
    ell0 = _bump_scale(ws, wb, 0.0)
    v = ell0 * wb
    v = v - (w @ v) / ws.total  # on the constraint already: only the mean shift

    def energy(x):
        return 0.5 * float(x @ (K @ x))

    def project(x):
        # back to {int v = 0, int h e^v = 0}: Newton along the bump, then a
        # mean shift; None when no correction exists
        found = _along_bump(ws, x, wb)
        return None if found is None else found[1] - (w @ found[1]) / ws.total

    def step(x, riesz):
        g = K @ x
        q = ws.wh * np.exp(x)
        lam = float(g @ (q / w)) / float(q @ (q / w))  # least squares, inverse-mass norm
        u = x + math.log(lam) if lam > 0.0 else None
        wn = math.inf if u is None else ws.weak_norm(ws.residual(u, 0.0))
        # Reduced gradient in the Riesz metric: pick the multiplier that makes
        # the step tangent to {int h e^v = 0}, so the wb-projection afterwards
        # only has to absorb the second-order constraint drift.
        dg = riesz.solve(g)
        dq = riesz.solve(q)
        q_bq = float(q @ dq)
        if not (q_bq > 0.0) or not math.isfinite(q_bq):
            raise NoConvergence("constraint derivative degenerated")
        d = dg - (float(q @ dg) / q_bq) * dq
        return u, wn, d, float(g @ d)

    def lift(u):
        x = u - (w @ u) / ws.total
        ev = np.exp(x)
        return x if abs(float(w @ (ws.hv * ev))) <= tol * float(w @ (np.abs(ws.hv) * ev)) else None

    v, u, report = _descend(ws, 0.0, v, "constrained-gradient(zero)",
                            value=energy, project=project, step=step, lift=lift)
    report.multiplier = math.exp(float(w @ (u - v)) / ws.total)
    report.identity_checks = {
        "mass_defect": abs(ws.mass(u)),
        "energy_defect": abs(exp_weighted_energy(GridFunction(grid, _read_only(u))) + ih),
        "multiplier_energy": exp_weighted_energy(GridFunction(grid, v)) / (-ih),
    }
    report.details.update(bump_scale=ell0, integral_h=ih)
    return Solution(GridFunction(grid, u), report)


def solve_positive(h: GridFunction, c: float, *, tol: float = DEFAULT_TOL) -> Solution:
    """Solve d2u = c - h e^u for c > 0 (solvable iff h is positive somewhere).

    Minimizes 1/2 int |du|^2 + c int u over {int h e^u = c |G|} by the
    descent of ``_descend``, whose projection is the exact constant shift
    t = ln(c|G| / int h e^u), until the residual is at most tol (1 + c)
    within MAX_ITER_GRADIENT iterations.  A Newton finish is accepted only
    when its root keeps |int h e^u - c |G|| <= tol (1 + c) |G|.
    """
    ws = _Workspace(h, tol)
    if not c > 0.0:
        raise ValueError("solve_positive requires c > 0")
    v0 = classify(h, c)
    if not v0.ok:
        raise NotSolvable(f"c > 0 needs max h > 0 ({v0.reason})")
    grid = h.grid
    w, K = ws.w, ws.K
    target = c * ws.total
    ih = v0.integral_h

    if ih >= target:
        u = np.full(grid.ndof, math.log(target / ih))
    else:
        wb = _bump(grid, h).values
        u = _bump_scale(ws, wb, target) * wb

    def project(x):
        cur = ws.mass(x)
        if not (cur > 0.0) or not math.isfinite(cur):
            return None
        return x + (math.log(target) - math.log(cur))

    u = project(u)
    if u is None:
        raise FeasibilityFailure("feasible start lost the positivity of int h e^u")

    def value(x):
        return 0.5 * float(x @ (K @ x)) + c * float(w @ x)

    def step(x, riesz):
        r = ws.residual(x, c)
        d = riesz.solve(r)
        return x, ws.weak_norm(r), d, float(r @ d)

    def lift(x):
        return x if abs(ws.mass(x) - target) <= ws.ctol(c) * ws.total else None

    u, _, report = _descend(ws, c, u, "constrained-gradient(positive)",
                            value=value, project=project, step=step, lift=lift)
    report.multiplier = 1.0
    report.identity_checks = {"mass_defect": abs(ws.mass(u) - target)}
    report.details.update(integral_h=ih, target_mass=target)
    return Solution(GridFunction(grid, _read_only(u)), report)


# ---------------------------------------------------------------------------
# c < 0: lower/upper solutions, monotone iteration, threshold, critical case


def build_lower(h: GridFunction, c: float, margin: float) -> GridFunction:
    """Constant lower solution -A with safety margin: -c - sup|h| e^(-A) >= margin."""
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    if margin >= -c:
        raise MarginTooLarge(f"margin {margin} is not smaller than -c = {-c}")
    sup_h = float(np.max(np.abs(h.values)))
    if sup_h <= (-c - margin):
        a_const = 0.0
    else:
        a_const = math.log(sup_h / (-c - margin))
    return constant(h.grid, -a_const)


def _mean_flux_problem(h: GridFunction) -> GridFunction:
    """m with d2m = mean(h) - h weakly; the compatible counterpart of h."""
    grid = h.grid
    rv = integrate(h) / grid.total_length - h.values
    rv -= (grid.weights @ rv) / grid.total_length  # strip roundoff mean
    return solve_poisson_meanzero(grid, GridFunction(grid, _read_only(rv)))


def build_upper(h: GridFunction) -> UpperSolutionParams:
    """Upper solution u+ = a m + b for the least-negative certified c.

    m solves d2m = mean(h) - h; a is the largest scale keeping
    max |e^(a m) - 1| <= rho with rho = min(-int h, -mean h) / (2 sup|h|);
    b = ln a.  The construction certifies solvability for every
    c >= implied_c = a (mean h + sup|h| rho) < 0, with the discrete
    upper-solution inequality holding exactly by construction.
    """
    ih = integrate(h)
    if ih >= 0.0:
        raise IntegralNotNegative(f"int h = {ih}; the upper-solution construction needs < 0")
    grid = h.grid
    hbar = ih / grid.total_length
    sup_h = float(np.max(np.abs(h.values)))
    m = _mean_flux_problem(h)
    mmax = float(np.max(np.abs(m.values)))
    rho = min(-ih, -hbar) / (2.0 * sup_h)
    if mmax <= 1e-14 * (1.0 + sup_h):
        m = constant(grid, 0.0)
        a = 1.0
    else:
        a = math.log1p(rho) / mmax
    b = math.log(a)
    implied_c = a * (hbar + sup_h * rho)

    params = UpperSolutionParams(m=m, a=a, b=b, implied_c=implied_c)
    up = params.u_plus()
    defect = residual_vector(grid, up.values, h.values, implied_c) / grid.weights
    floor = -1e-8 * (1.0 + abs(implied_c) + sup_h * math.exp(float(np.max(up.values))))
    if float(np.min(defect)) < floor:
        raise NoConvergence(
            f"constructed upper solution failed its own inequality (min defect {defect.min():.3e})"
        )
    return params


def build_upper_hneg(h: GridFunction, c: float) -> GridFunction:
    """Upper solution for h <= 0 (threshold minus infinity): any c < 0 works.

    Picks a = 2c / mean(h) (twice the least admissible scale) and
    b = ln a + a max|m| + 1, so e^(a m + b) > a everywhere and
    a mean(h) = 2c < c.
    """
    hv = h.values
    if float(np.max(hv)) > 0.0:
        raise HNotNonpositive("h must be <= 0 everywhere")
    ih = integrate(h)
    if ih >= 0.0:
        raise IntegralNotNegative("h <= 0 with int h = 0 means h vanishes identically")
    if not c < 0.0:
        raise ValueError("build_upper_hneg requires c < 0")
    grid = h.grid
    hbar = ih / grid.total_length
    m = _mean_flux_problem(h)
    a = 2.0 * c / hbar
    b = math.log(a) + a * float(np.max(np.abs(m.values))) + 1.0
    return GridFunction(grid, _read_only(a * m.values + b))


def monotone_iterate(h: GridFunction, c: float, u_minus: GridFunction,
                     u_plus: GridFunction, *, tol: float = DEFAULT_TOL) -> Solution:
    """Descend from the upper solution through shifted linear solves.

    Each sweep solves d2u' - k u' = f(u) - k u, f(x, u) = c - h e^u, with the
    shift k = max(-h, SHIFT_FLOOR max(-h)) e^(u_n) taken from the latest
    iterate u_n: first from u+, then refreshed (and refactored) every
    SHIFT_REFRESH sweeps.  Any k > 0 with k >= -h e^v for every v between
    u- and u_n keeps the sweeps ordered, u- <= u_{n+1} <= u_n <= u+: then
    f(v) + k v is nondecreasing in v there, so the right-hand side of a
    sweep inherits the order of its iterates, and (K + M_k)^(-1) is a
    nonnegative matrix (K + M_k is an M-matrix).  As the iterates only
    descend, -h e^(u_n) is the least such k where h < 0; where h >= 0 the
    floor only keeps k positive.  The smaller k is, the faster the sweeps
    contract (monotone_history records the slack of both inequalities each
    sweep; each sweep's solve is checked a posteriori).  A damped-Newton
    tail from the latest sweep may finish the solve: it is tried right after
    the first sweep, and after a failed or refused try the sweeps go on
    alone; only when their step reaches tol with the residual still above
    tol (1 + |c|) is it tried once more, so a call tries at most two.
    ``_refuse_sandwich`` keeps its root only inside [u-, u_n], up to the
    ordering test's roundoff allowance plus 1e-8 (1 + |c|).  Each refused
    tail is listed in ``details["rejected_tails"]`` with its reason,
    "newton_failed" or "left_sandwich".  When the steps reach roundoff with
    the residual above tol and the tail fails too, or when MAX_ITER_MONOTONE
    sweeps do not reach tol, NoConvergence says so.  The SolveCounts in
    ``details`` count every factorization of the call, sweeps included.
    """
    ws = _Workspace(h, tol)
    if not c < 0.0:
        raise ValueError("monotone iteration applies to c < 0")
    for f, name in ((u_minus, "u_minus"), (u_plus, "u_plus")):
        if not grids_compatible(h.grid, f.grid):
            raise GridMismatch(f"{name} lives on a different grid")
    return _monotone(ws, c, u_minus, u_plus)


def _monotone(ws: _Workspace, c: float, u_minus: GridFunction, u_plus: GridFunction,
              seed: np.ndarray | None = None) -> Solution:
    """monotone_iterate on the checked inputs, its factorizations counted in
    ``ws``; the counts in ``details`` are all of ``ws``'s so far.  Given a
    ``seed``, the first tail starts there, and from the first sweep only
    when that finish fails."""
    grid, hv, w = ws.grid, ws.hv, ws.w

    gap = float(np.min(u_plus.values - u_minus.values))
    if gap < -1e-12:
        raise OrderingViolated(f"u_minus exceeds u_plus by {-gap:.3e}")
    pair_tol = 1e-9 * (1.0 + abs(c))
    upper_defect = float(np.min(ws.residual(u_plus.values, c) / w))
    if upper_defect < -pair_tol:
        raise OrderingViolated(f"u_plus is not a discrete upper solution (defect {upper_defect:.3e})")
    lower_defect = float(np.max(ws.residual(u_minus.values, c) / w))
    if lower_defect > pair_tol:
        raise OrderingViolated(f"u_minus is not a discrete lower solution (defect {lower_defect:.3e})")

    k_scale = np.maximum(-hv, SHIFT_FLOOR * float(np.max(-hv)))

    def shift(v: np.ndarray):
        k = k_scale * np.exp(v)
        return k, ws.factor(w * k)

    k, lu = shift(u_plus.values)

    # An exact upper/lower pair keeps the sweeps ordered to machine precision;
    # a pair admitted with a small defect can leak that defect into the
    # ordering.  (K + M_k)^(-1) is nonnegative, so a defect of at most
    # pair_leak per unit weight moves a sweep by at most
    # pair_leak max((K + M_k)^(-1) w), and the allowed slack scales with that.
    pair_leak = max(0.0, -upper_defect, lower_defect)
    order_slack = 1e-12
    if pair_leak > 0.0:
        order_slack += 20.0 * pair_leak * float(np.max(lu.solve_checked(w)))

    u = u_plus.values
    lo = u_minus.values
    history = []
    tol, ctol = ws.tol, ws.ctol(c)
    wn = math.inf
    # a Newton root must lie between u- and the latest sweep up to roundoff
    slack = order_slack + 1e-8 * (1.0 + abs(c))
    used_tail = False
    rejected_tails = []
    for n in range(1, MAX_ITER_MONOTONE + 1):
        if n > 1 and (n - 1) % SHIFT_REFRESH == 0:
            lu = None  # free the old factors before computing the new ones
            k, lu = shift(u)
        rhs = c - hv * np.exp(u) - k * u
        unew = lu.solve_checked(-(w * rhs))
        step = float(np.max(np.abs(unew - u)))
        down_slack = float(np.min(u - unew))
        low_slack = float(np.min(unew - lo))
        history.append({"step": step, "monotone_slack": down_slack, "lower_slack": low_slack})
        if down_slack < -order_slack or low_slack < -order_slack:
            raise OrderingViolated(
                f"sandwich broke at sweep {n}: down {down_slack:.3e}, lower {low_slack:.3e}"
            )
        u = unew
        if step <= tol:
            wn = ws.weak_norm(ws.residual(u, c))
            if wn <= ctol:
                break
        if n == 1 or step <= tol:
            # right after the first sweep (from the seed, then from the sweep),
            # and once more at roundoff: try a Newton finish
            for start in (seed, u) if n == 1 and seed is not None else (u,):
                root = _newton_finish(ws, c, start, lambda r: _refuse_sandwich(r, lo, u, slack),
                                      rejected_tails, sweep=n)
                if root is not None:
                    break
            if root is not None:
                u, used_tail = root, True
                wn = ws.weak_norm(ws.residual(u, c))
                break
            if step <= tol:
                raise NoConvergence(
                    f"monotone sweeps at roundoff after {n} sweeps: step {step:.3e} <= tol "
                    f"but residual {wn:.3e} > {ctol:.3e}, and the Newton tail failed "
                    f"({rejected_tails[-1]['reason']})"
                )
    else:
        raise NoConvergence(f"monotone iteration exhausted {MAX_ITER_MONOTONE} sweeps")

    mass = ws.mass(u)
    report = SolveReport(
        method="monotone",
        iterations=len(history),
        final_residual=wn,
        functional_value=None,
        identity_checks={"mass_defect": abs(mass - c * ws.total)},
        monotone_history=history,
        details={"upper_defect": upper_defect, "lower_defect": lower_defect,
                 "newton_tail": used_tail, "shift_refreshes": (len(history) - 1) // SHIFT_REFRESH,
                 "tail_attempts": len(rejected_tails) + used_tail,
                 "rejected_tails": rejected_tails, **asdict(ws.counts)},
    )
    return Solution(GridFunction(grid, _read_only(u)), report)


def _newton_finish(ws: _Workspace, c: float, seed: np.ndarray, refuse, rejected: list, **where):
    """The root of damped Newton from ``seed`` at residual ws.ctol(c), or None.

    Every Newton finish of every solver goes through here.  A root is kept
    unless ``refuse(root)`` names the reason it is not; a failed or refused
    finish is appended to ``rejected`` as {**where, "reason": ...}, the
    reason "newton_failed" or the refusal's.
    """
    root = _damped_newton(ws, c, seed)
    reason = "newton_failed" if root is None else refuse(root)
    if reason is None:
        return root
    rejected.append({**where, "reason": reason})
    return None


def _refuse_minimum(ws: _Workspace, root: np.ndarray, lift, value, val: float):
    """Why a c >= 0 descent at value ``val`` refuses the Newton root, else
    None.  "constraint": ``lift`` does not map it into the constraint set
    (returns None); "higher_value": the lifted root's value lies above val
    beyond roundoff; "saddle": it is not a minimum, because J = K - diag(w h
    e^u), the Hessian of the Lagrangian, has more than one negative
    eigenvalue (it always has one, J 1 = -w h e^u)."""
    x = lift(root)
    if x is None:
        return "constraint"
    if value(x) > val + 1e-13 * (1.0 + abs(val)):
        return "higher_value"
    if ws.factor(ws.jacobian_shift(root)).negative_eigenvalues() > 1:
        return "saddle"
    return None


def _refuse_sandwich(root: np.ndarray, lo: np.ndarray, u: np.ndarray, slack: float):
    """"left_sandwich" unless the Newton root of a c < 0 monotone tail stays
    inside the certified sandwich, lo - slack <= root <= u + slack with u
    the latest sweep; else None.  The monotone iteration passes the
    roundoff allowance of its ordering test plus 1e-8 (1 + |c|) as slack,
    whatever the size of the last step: the sweeps descend onto the
    solution they converge to, so it lies in [lo, u] after every sweep."""
    inside = float(np.min(root - lo)) >= -slack and float(np.max(root - u)) <= slack
    return None if inside else "left_sandwich"


def _damped_newton(ws: _Workspace, c: float, seed: np.ndarray):
    """Damped Newton on the full residual, at most MAX_ITER_NEWTON steps;
    returns DOF values or None.

    Keeps iterating past tol = ws.ctol(c) while convergence is still fast,
    so accepted results sit near the numerical floor rather than just under
    tol.  Above tol the step halves from 1 down to 1e-10 until it lowers the
    merit r^T M^(-1) r enough; under tol only the full step is tried, and
    when it does not lower the merit the residual has reached its floor, and
    the best u so far, the last step's included, is returned.  Each trial
    point is linearized once, for its residual and for the next step.  A
    step whose Jacobian solve fails (LinearSolveFailure) ends the finish.
    """
    u = np.asarray(seed, dtype=float)
    w, tol = ws.w, ws.ctol(c)
    best_u, best_wn = None, math.inf
    prev_wn = math.inf
    r, shift = ws.linearize(u, c)  # nonfinite exactly where e^u overflows
    for it in range(MAX_ITER_NEWTON + 1):
        if not np.all(np.isfinite(r)):
            break
        wn = ws.weak_norm(r)
        if wn < best_wn:
            best_wn, best_u = wn, u
        if (wn <= tol and wn > 0.3 * prev_wn) or it == MAX_ITER_NEWTON:
            break  # under tolerance and no longer improving quickly, or out of steps
        prev_wn = wn
        try:
            d = ws.factor(shift).solve_checked(-r)
        except LinearSolveFailure:
            break  # a singular Jacobian, or a step failing its backward-error check
        merit = float(r @ (r / w))
        r = shift = None  # only the trial point's linearization stays live
        alpha = 1.0
        floor = 1.0 if wn <= tol else 1e-10
        while alpha >= floor:
            ut = u + alpha * d
            rt, st = ws.linearize(ut, c)
            if np.all(np.isfinite(rt)):
                with np.errstate(over="ignore"):
                    mt = float(rt @ (rt / w))
                if math.isfinite(mt) and mt <= (1.0 - 2.0 * ARMIJO_DECREASE * alpha) * merit:
                    u, r, shift = ut, rt, st
                    break
            alpha *= 0.5
        if r is None:
            break
    return best_u if best_wn <= tol else None


def _sandwich(ws: _Workspace, c: float, up: GridFunction, seed=None) -> Solution:
    """_monotone at c from the upper solution ``up`` and ``seed``, above a
    constant lower solution with a -c/2 margin that sits below ``up``."""
    base = build_lower(ws.h, c, margin=0.5 * (-c))
    a_const = max(-float(np.min(base.values)), 1.0 - float(np.min(up.values)))
    return _monotone(ws, c, constant(ws.grid, -a_const), up, seed)


def solve_negative(h: GridFunction, c: float, *, tol: float = DEFAULT_TOL) -> Solution:
    """Solve d2u = c - h e^u for c < 0 (needs int h < 0).

    h <= 0: the constructed upper solution works for every c < 0.  Otherwise
    the scaled-flux upper solution certifies c >= implied_c directly.  Below
    that the solution branch is walked from implied_c to a point psi at some
    c_psi just below c, a strict upper solution at c (details ``c_psi`` and
    ``branch_points``), and the first Newton tail starts from psi.toward(c).
    When the branch folds above c, NoUpperSolutionFound names the fold c*
    (its ``c_star``): evidence of c below the threshold, never a proof.
    Every monotone iteration, and the branch walk, stops at residual tol (1
    + |c|).
    """
    ws = _Workspace(h, tol)
    if not c < 0.0:
        raise ValueError("solve_negative requires c < 0")
    v0 = classify(h, c)
    if not v0.ok:
        raise NotSolvable(f"c < 0 needs int h < 0 ({v0.reason})")
    details, seed = {}, None
    if v0.max_h <= 0.0:
        method, up = "monotone(h<=0)", build_upper_hneg(h, c)
    else:
        params = build_upper(h)
        c0 = details["implied_c"] = params.implied_c
        if c >= c0:
            method, up = "monotone(certified)", params.u_plus()
        else:
            # below the certified range: walk the branch from implied_c to a
            # point psi just below c
            walk = _Walk(ws, params)
            psi = walk.upper(c)
            method, up = "monotone(continuation)", GridFunction(h.grid, psi.u)
            seed = psi.toward(c)
            details.update(continuation_from=c0, c_psi=psi.c, branch_points=walk.solved())
    sol = _sandwich(ws, c, up, seed)
    sol.report.method = method
    sol.report.details.update(details, **asdict(ws.counts))
    return sol


class _BranchPoint(NamedTuple):
    """A solution (u, c) of the branch at mean mu, with its first and second
    derivatives in mu."""

    mu: float
    u: np.ndarray
    c: float
    du: np.ndarray  # du/dmu
    ddu: np.ndarray  # d2u/dmu2
    dc: float  # dc/dmu
    ddc: float  # d2c/dmu2
    iters: int  # Newton steps the corrector took
    res: float  # weak residual at c; at the fold point, at least its rounding bound

    def record(self) -> dict:
        return {"mu": self.mu, "c": self.c, "dc_dmu": self.dc, "newton_iters": self.iters}

    def toward(self, c: float):
        """Keller's predictor solved for c: u + x (du/dmu + x d2u/dmu2 / 2) at
        the x nearest 0 where c_p + x dc/dmu + x^2 d2c/dmu2 / 2 = c; None when
        that has no real root."""
        disc = self.dc ** 2 + 2.0 * self.ddc * (c - self.c)
        if not disc > 0.0:
            return None
        x = 2.0 * (c - self.c) / (self.dc + math.copysign(math.sqrt(disc), self.dc))
        return self.u + x * (self.du + 0.5 * x * self.ddu)


def _past(p: _BranchPoint, q: _BranchPoint) -> bool:
    """Whether q, a step on from p where c falls, lies past a fold: dc/dmu
    changed sign, or c rose by more than the residuals, which it never does
    on the approach side."""
    return p.dc * q.dc <= 0.0 or q.c > p.c + p.res + q.res


def _branch_point(ws: _Workspace, start: _BranchPoint, mu: float):
    """Newton on F(u, c) = 0, w.u = |G| mu from the Taylor predictor at
    ``start``, second order in u; the point at ``mu``, or None when Newton
    fails.

    The Jacobian [[K - diag(w h e^u), w], [w^T, 0]] stays nonsingular through
    the fold: there the null vector of K - diag(w h e^u) is positive (the
    matrix is a Z-matrix), so w is not orthogonal to it.  Its last
    factorization (at the predictor when that needs no Newton step, else at
    the iterate before the last step) also gives the first derivatives in
    mu, from the right-hand side (0, |G|), and the second, from
    (w h e^u (du/dmu)^2, 0).  Newton counts as failed when its first step
    moves u by more than half the tangent's move or a later step does not
    halve the one before: either means the predictor was too far off to
    stay on this branch.
    """
    n, w, dm = ws.grid.ndof, ws.w, mu - start.mu
    u = start.u + dm * (start.du + 0.5 * dm * start.ddu)
    c = start.c + dm * start.dc
    bound = 0.5 * abs(dm) * float(np.max(np.abs(start.du)))
    b = np.empty(n + 1)  # every bordered right-hand side
    for it in range(9):  # at most 8 Newton steps
        r, jac = ws.linearize(u, c)  # jac: the Jacobian shift at u
        wn = ws.weak_norm(r)
        if not math.isfinite(wn):
            return None
        if it and wn <= ws.ctol(c):
            break  # the factors of the last step serve the point
        if it == 8:
            return None
        try:
            shift, lu = jac, ws.factor(jac, border=w)
            if wn <= ws.ctol(c):
                break
            b[:n], b[n] = -r, ws.total * mu - float(w @ u)
            x = lu.solve(b)
        except LinearSolveFailure:
            return None
        move = float(np.max(np.abs(x[:n])))
        if move > bound:
            return None
        bound = 0.5 * move
        u, c = u + x[:n], c + float(x[n])
    b[:n], b[n] = 0.0, ws.total
    t = lu.solve(b)
    # differentiate F = 0 and w.u = |G| mu twice along the branch
    b[:n], b[n] = -shift * t[:n] ** 2, 0.0
    tt = lu.solve(b)
    return _BranchPoint(mu, u, c, t[:n], tt[:n], float(t[n]), float(tt[n]), it, wn)


def _polished(ws: _Workspace, p: _BranchPoint) -> _BranchPoint:
    """p after one more Newton step on its own Jacobian, which takes it to
    its roundoff floor.  Below the rounding bound of the residual the
    residual no longer bounds the error in c, so ``res`` is at least that."""
    n, w = ws.grid.ndof, ws.w
    r, shift = ws.linearize(p.u, p.c)
    x = ws.factor(shift, border=w).solve(np.append(-r, ws.total * p.mu - float(w @ p.u)))
    u, c = p.u + x[:n], p.c + float(x[n])
    return p._replace(u=u, c=c, res=max(ws.weak_norm(ws.residual(u, c)), ws.floor(u, c)))


def _half_way(p: _BranchPoint, c: float) -> float:
    """|dc/dmu| where the quadratic model of c at p, which has a fold (d2c/dmu2
    > 0), lies half way in c from that fold to c: the model is (dc/dmu)^2 /
    2 d2c/dmu2 above its fold.  0 when c lies below the fold."""
    return math.sqrt(max(0.0, p.ddc * (c - p.c) + 0.5 * p.dc ** 2))


class _Walk:
    """The solution branch from the certified solution at implied_c, followed
    where c falls, with mu = mean u as parameter; every point comes from the
    corrector ``_branch_point``, with dc/dmu and d2c/dmu2.

    The step in mu doubles after a corrector that took at most two Newton
    steps and halves after one that failed; the quadratic model of c(mu) at
    the last point caps it (see down_to).  ``points`` holds the traced
    points in order (past the fold, the last two straddle it) and
    ``refinement`` the points that ``_refine``, a Newton search, solves
    between them, and those ``upper`` adds.  The first step is the one
    ``down_to`` aims at c when ``upper`` walks first, and |implied_c /
    (dc/dmu)|, the step over which the tangent doubles c, when ``fold``
    does.  ``bracket_tol`` (by default 1e-4 |implied_c|) sets the fold's
    precision; the points depend on it only through the test that ends the
    fold search.
    """

    def __init__(self, ws: _Workspace, params: UpperSolutionParams,
                 bracket_tol: float | None = None):
        c = params.implied_c
        u = _sandwich(ws, c, params.u_plus()).u.values
        self.ws = ws
        self.bracket_tol = 1e-4 * abs(c) if bracket_tol is None else bracket_tol
        mu = float(ws.w @ u) / ws.total
        # (u, c) solves F = 0 to tol already; this call adds its derivatives
        zero = np.zeros_like(u)
        p = _branch_point(ws, _BranchPoint(mu, u, c, zero, zero, 0.0, 0.0, 0, 0.0), mu)
        if p is None:
            raise NoConvergence(f"the branch corrector failed at the certified c = {c}")
        self.points = [p]
        self.refinement = []
        self.fold_point = None
        self.sign = -math.copysign(1.0, p.dc)  # mu moves where c falls
        self.step = None  # set by the first step of down_to

    def solved(self) -> int:
        return len(self.points) + len(self.refinement)

    def down_to(self, c: float) -> None:
        """Step on until the last point lies below c, or past the fold
        (``_past``) and ``_refine`` searches between the last two.  The
        quadratic model c_p - |dc/dmu| x + d2c/dmu2 x^2 / 2 of the last point
        caps each step a quarter past the model's fold, at x = 1.25 |dc/dmu| /
        (d2c/dmu2), and at a finite c where the model reaches c - reach
        |dc/dmu| / 2 max|du/dmu| (reach = 1e-3 (1 + |c|)) before its fold."""
        reach = 1e-3 * (1.0 + abs(c))
        for _ in range(200):
            p = self.points[-1]
            if len(self.points) > 1 and _past(self.points[-2], p):
                if self.fold_point is None:
                    self._refine(c)
                return
            if p.c + p.res <= c:
                return
            step = self.step
            if step is None:  # the first step; at a finite c the aim below caps it
                step = (math.inf if c > -math.inf else abs(p.c / p.dc)) if p.dc else 0.1
            g, ddc = abs(p.dc), p.ddc
            if ddc > 0.0:
                step = min(step, 1.25 * g / ddc)
            gap = p.c - c + 0.5 * reach * g / float(np.max(np.abs(p.du)))
            if 0.0 < gap < math.inf and g * g > 2.0 * ddc * gap:
                step = min(step, 2.0 * gap / (g + math.sqrt(g * g - 2.0 * ddc * gap)))
            q = _branch_point(self.ws, p, p.mu + self.sign * step)
            if q is None:
                self.step = 0.5 * step
                continue
            self.points.append(q)
            self.step = 2.0 * step if q.iters <= 2 else step
        raise NoConvergence(f"the branch walk met neither c = {c} nor the fold in 200 steps "
                            f"(last point c = {p.c}, mu = {p.mu})")

    def _refine(self, c: float) -> None:
        """Safeguarded Newton on dc/dmu (Keller's turning-point search) between
        a, the last solved point before the fold, and b, the first past it,
        until an approach-side point lies below c, or is the fold point: 0.5
        (dc/dmu)^2 / d2c/dmu2 <= 1e-3 bracket_tol, the distance in c from
        its quadratic model's fold.  The fold point is then polished.

        Newton runs from the latest point s, with the third derivative that
        the pair gives, and aims at the approach-side point half way in c
        from the fold of the model at s to c (``_half_way``: at the fold when
        c = -inf); from s past the fold at least half as far before the fold
        as s lies past it, so that the search ends on the approach side.
        Its point is taken when it lies strictly inside the pair, else the
        Illinois step is.  The walk's own b is trusted only when its slope
        model predicts dc/dmu at a (else the walk may have stepped over
        several turns of c): until the search has a point past the fold of
        its own, Newton runs from a only, and every point is predicted from
        a.  Where the corrector fails at the new point, the point moves
        halfway to the end it is predicted from, up to 8 times."""
        tol, first = 1e-3 * self.bracket_tol, self.points[0].dc
        solved = self.points + self.refinement
        ordered = sorted(solved, key=lambda p: self.sign * p.mu)
        k = 1
        while not _past(ordered[k - 1], ordered[k]):
            k += 1
        a, b = ordered[k - 1], ordered[k]
        s, fa, fb = solved[-1], a.dc, b.dc
        # the linear model of dc/dmu at b predicts dc/dmu at a to within half
        # the change it predicts: no turn of c(mu) it does not see lies between
        dm = a.mu - b.mu
        trust_b = abs(a.dc - b.dc - dm * b.ddc) <= 0.5 * abs(dm * b.ddc)
        for _ in range(30):
            if a.c + a.res <= c:
                return
            if 0.5 * a.dc ** 2 <= tol * abs(a.ddc):
                fold = _polished(self.ws, a)
                for points in (self.points, self.refinement):
                    points[:] = [fold if p is a else p for p in points]
                self.fold_point = fold
                return
            mu_s = math.nan
            if s.ddc > 0.0 and (s is a or trust_b):
                aim = _half_way(s, c)
                if s.dc * first <= 0.0:
                    aim = max(aim, 0.5 * abs(s.dc))
                # dc/dmu + d2c/dmu2 x + d3c/dmu3 x^2 / 2 reaches the aim
                q = math.copysign(aim, first) - s.dc
                d3 = (b.ddc - a.ddc) / (b.mu - a.mu) if trust_b else 0.0
                disc = s.ddc ** 2 + 2.0 * d3 * q
                mu_s = s.mu + (2.0 * q / (s.ddc + math.sqrt(disc)) if disc > 0.0 else q / s.ddc)
            if not min(a.mu, b.mu) < mu_s < max(a.mu, b.mu):
                mu_s = (a.mu * fb - b.mu * fa) / (fb - fa)
            near = b if trust_b and abs(b.mu - mu_s) < abs(a.mu - mu_s) else a
            for _ in range(8):
                s = _branch_point(self.ws, near, mu_s)
                if s is not None:
                    break
                mu_s = 0.5 * (near.mu + mu_s)
            else:
                raise NoConvergence(f"the branch corrector failed next to the fold's Newton "
                                    f"point mu = {mu_s}")
            self.refinement.append(s)
            if not _past(a, s):  # Illinois: halve the weight of the end that stays
                a, fa, fb = s, s.dc, 0.5 * fb
            else:
                b, fb, fa, trust_b = s, s.dc, 0.5 * fa, True
        raise NoConvergence(f"the fold's Newton on the branch did not settle (c = {s.c})")

    def fold(self) -> _BranchPoint:
        """The fold point: the approach-side point of the Newton search that
        stands for the fold c*."""
        self.down_to(-math.inf)
        return self.fold_point

    def upper(self, c: float) -> _BranchPoint:
        """The solved point with the largest c_p <= c - residual on the
        approach side of the fold: a solution at c_p < c, so an upper
        solution at c.  Walks on until a point lies below c, or the walk
        steps past the fold and the search between the straddling points
        finds one (or the fold point, when c lies below or at the fold).
        When that point lies closer to the fold than half way to the
        solution at c, by its quadratic model, one Newton step of the model
        solves the point half way in c from the fold to c: the monotone
        iteration from a point near the fold can take hundreds of sweeps,
        because its Newton tail heads for the solution past the fold.
        Raises NoUpperSolutionFound, naming the fold c*, when no point
        reaches c (c lies below the fold, or above it by less than the
        residual of the points there), and when the fold is known and c lies
        above it by at most the fold point's residual, closer than the
        corrector resolves c.
        """
        self.down_to(c)
        first, fold = self.points[0].dc, self.fold_point
        below = [p for p in self.points + self.refinement
                 if p.dc * first > 0.0 and p.c + p.res <= c]
        if (fold is not None and c - fold.c <= fold.res) or not below:
            fold = self.fold()
            where = (f"lies below the fold of the solution branch at c* = {fold.c!r} "
                     f"(certified range starts at {self.points[0].c})" if c < fold.c else
                     f"lies {c - fold.c:.1e} above the fold at c* = {fold.c!r}, closer than the "
                     f"walk resolves c: the fold point solves only to residual {fold.res:.1e}")
            raise NoUpperSolutionFound(f"c = {c} {where}", c_star=fold.c)
        p = max(below, key=lambda p: p.c)
        if 3.0 * p.dc ** 2 < 2.0 * p.ddc * (c - p.c):  # nearer the fold than half way to c
            q = _branch_point(self.ws, p, p.mu - (p.dc - math.copysign(_half_way(p, c), first))
                              / p.ddc)
            if q is not None:
                self.refinement.append(q)
                if q.dc * first > 0.0 and q.c + q.res <= c:
                    return q
        return p


def estimate_threshold(h: GridFunction, *, bracket_tol: float | None = None) -> ThresholdEstimate:
    """Bracket the solvability threshold in c around the fold of the solutions.

    h <= 0 everywhere -> minus_infinity.  Otherwise the branch of solutions
    is walked from the certified monotone solution at implied_c, with the
    mean mu of u as its parameter, in the direction where c falls.  Its
    turning point (dc/dmu = 0) is the threshold c*: no solution exists below
    it.  The bracket is c_hi = c* + bracket_tol / 2 and c_lo = c_hi -
    bracket_tol; monotone iteration certifies c_hi from a point of the walk
    below it on the approach side of the fold, a strict upper solution.  The
    search for the fold ends on that side, at the fold point whose c is c*,
    and the walk then solves the point half way in c from c* to c_hi (see
    _Walk.upper): the fold point itself lies below c_hi, unless bracket_tol
    is finer than the walk resolves c there, but too close to the fold for
    the monotone iteration, whose first Newton tail starts from that point's
    model at c_hi (``_BranchPoint.toward``).  Every solve in the walk and
    the certificate runs at the default tol.  ``critical`` is the ``_Fold``.
    ValueError when bracket_tol is not positive and finite;
    NoConvergence when c_hi does not solve, naming bracket_tol when it is
    finer than the walk resolves the fold.

    ``details`` holds c_star and mu_star, every traced point (``branch``)
    and point of the fold search (``refinement``) as {mu, c, dc_dmu,
    newton_iters}, ``probes`` (how many points were solved), and the
    SolveCounts of the whole call.
    """
    if bracket_tol is not None:
        _check_positive("bracket_tol", bracket_tol)
    ih = integrate(h)
    if ih >= 0.0:
        raise IntegralNotNegative(f"int h = {ih}; threshold analysis needs < 0")
    if float(np.max(h.values)) <= 0.0:
        return ThresholdEstimate(minus_infinity=True, c_lo=None, c_hi=None,
                                 analytic_upper_bound=None)

    ws = _Workspace(h)
    params = build_upper(h)
    c0 = params.implied_c
    walk = _Walk(ws, params, bracket_tol)
    bracket_tol = walk.bracket_tol
    fold = walk.fold()
    c_hi = min(fold.c + 0.5 * bracket_tol, c0)
    c_lo = c_hi - bracket_tol
    critical = _critical(walk, c_lo, c_hi)  # before the certificate's sweeps add to the counts
    try:
        psi = walk.upper(c_hi)
        _sandwich(ws, c_hi, GridFunction(h.grid, psi.u), psi.toward(c_hi))
    except NoUpperSolutionFound as exc:
        # c_hi lies above the fold, but closer than the walk resolves c there
        raise NoConvergence(f"bracket_tol = {bracket_tol!r} is finer than the walk resolves "
                            f"the fold, so c_hi is not certified: {exc}") from exc
    except NoConvergence as exc:
        raise NoConvergence(f"fold at c* = {fold.c!r}, but c_hi = {c_hi!r} "
                            f"did not solve: {exc}") from exc

    details = {"probes": walk.solved(), "c_star": fold.c, "mu_star": fold.mu,
               "branch": [p.record() for p in walk.points],
               "refinement": [p.record() for p in walk.refinement], **asdict(ws.counts)}
    return ThresholdEstimate(minus_infinity=False, c_lo=c_lo, c_hi=c_hi,
                             analytic_upper_bound=c0, details=details, critical=(h, critical))


# what solve_critical needs of the walk of a bracket: approach holds (c, u, res), the fold last
_Fold = NamedTuple("_Fold", [("bracket", tuple), ("approach", list), ("iterations", int),
                             ("points", int), ("counts", dict)])


def _critical(walk: _Walk, c_lo: float, c_hi: float) -> _Fold:
    """The walk's fold for [c_lo, c_hi] (see solve_critical), once the walk
    has solved the point that certifies c_hi when c_hi lies above the fold
    by more than its residual: every walk of a bracket solves those points."""
    fold = walk.fold()
    if c_hi - fold.c > fold.res:
        walk.upper(c_hi)
    first, solved = walk.points[0].dc, walk.points + walk.refinement
    side = [p for p in solved if p is not fold and p.dc * first > 0.0 and p.c <= c_hi]
    approach = [(p.c, p.u, p.res) for p in sorted(side, key=lambda p: p.c, reverse=True) + [fold]]
    return _Fold((c_lo, c_hi), approach, sum(p.iters for p in solved), len(solved),
                 asdict(walk.ws.counts))


def solve_critical(h: GridFunction, estimate: ThresholdEstimate) -> Solution:
    """The solution at the threshold itself: the fold of the solution branch.

    A walk of the branch from implied_c, at the default tol and with the
    bracket width as its fold precision, ends by a Newton search on dc/dmu =
    0 at the fold point, which solves the equation at c_final = c*.  For its
    own h and bracket an estimate carries that fold and its approach, built
    into the Solution with no second walk; a hand-made bracket is walked.
    The fold must lie in [c_lo, c_hi], else NoConvergence names c*, and the
    bracket width when c* misses by no more than the fold point's residual.
    ``details["approach"]`` is the boundedness record of the critical case:
    H1 norm, 1/2 |du|^2, mass defect and residual of each point the walk
    solves on the approach side with c <= c_hi (the one that certifies c_hi
    among them), then of the fold.  BoundBlowup when those H1 norms spread
    by more than 50x.
    """
    if estimate.minus_infinity:
        raise ValueError("threshold is minus infinity; there is no critical c")
    c_lo, c_hi = estimate.c_lo, estimate.c_hi
    _check_positive("the bracket width c_hi - c_lo", c_hi - c_lo)
    h0, fold = estimate.critical or (h, None)
    if fold is None or fold.bracket != (c_lo, c_hi) or not (
            grids_compatible(h.grid, h0.grid) and np.array_equal(h.values, h0.values)):
        ws = _Workspace(h)
        fold = _critical(_Walk(ws, build_upper(h), c_hi - c_lo), c_lo, c_hi)
    c_star, u, res = fold.approach[-1]
    miss = max(c_lo - c_star, c_star - c_hi)
    if 0.0 < miss <= res:  # as in _Walk.upper: the walk places c no closer than res
        raise NoConvergence(f"the bracket width c_hi - c_lo = {c_hi - c_lo!r} is finer than the "
                            f"walk resolves the fold: c* = {c_star!r} lies {miss:.1e} outside "
                            f"[{c_lo!r}, {c_hi!r}], within the fold point's residual {res:.1e}")
    if miss > 0.0:
        raise NoConvergence(f"the fold of the solution branch at c* = {c_star!r} lies "
                            f"outside the bracket [{c_lo!r}, {c_hi!r}]")
    ws = _Workspace(h)

    def record(c_p, u_p, res_p):
        nr = norms(GridFunction(ws.grid, u_p))
        return {"c": c_p, "h1_norm": math.hypot(nr.l2, nr.h1_seminorm),
                "dirichlet_half": 0.5 * nr.h1_seminorm ** 2,
                "mass_defect": abs(ws.mass(u_p) - c_p * ws.total), "residual": res_p}

    approach = [record(*p) for p in fold.approach]
    h1s = [r["h1_norm"] for r in approach]
    if max(h1s) > 50.0 * max(min(h1s), 1e-30):
        raise BoundBlowup(f"H1 norms along the approach spread by {max(h1s)/min(h1s):.1f}x")
    c_mid = 0.5 * (c_lo + c_hi)
    report = SolveReport(
        method="critical-fold", iterations=fold.iterations, final_residual=res,
        identity_checks={"mass_defect_at_c_final": approach[-1]["mass_defect"],
                         "mass_defect_at_midpoint": abs(ws.mass(u) - c_mid * ws.total)},
        details={"c_final": c_star, "c_midpoint": c_mid, "bracket": [c_lo, c_hi],
                 "approach": approach, "branch_points": fold.points, **fold.counts},
    )
    return Solution(GridFunction(h.grid, u), report)


def solve(h: GridFunction, c: float, *, tol: float = DEFAULT_TOL) -> Solution:
    """Dispatch on the sign of c to the matching solver, at residual tol;
    ValueError for a non-finite c or a tol that is not positive and finite."""
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c!r}")
    if c == 0.0:
        return solve_zero(h, tol=tol)
    if c > 0.0:
        return solve_positive(h, c, tol=tol)
    return solve_negative(h, c, tol=tol)
