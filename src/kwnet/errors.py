"""Exception types raised across the package.

Input/precondition violations subclass ValueError; iteration and linear-algebra
failures subclass RuntimeError.
"""

from __future__ import annotations


class DisconnectedGraph(ValueError):
    """The metric graph is not connected."""


class NonpositiveLength(ValueError):
    """An edge was given length <= 0."""


class SelfLoop(ValueError):
    """An edge joins a vertex to itself (split it with a degree-2 vertex instead)."""


class DanglingEndpoint(ValueError):
    """An edge references a vertex that is not in the vertex list."""


class ResolutionTooCoarse(ValueError):
    """A grid was requested with fewer than the minimum cells on some edge."""


class ContinuityMismatch(ValueError):
    """Edge profiles disagree at a shared vertex beyond tolerance."""


class NotMeanZero(ValueError):
    """A mean-zero function was required; caller must pre-center."""


class SeminormExceedsDelta(ValueError):
    """The Dirichlet energy of the input exceeds the stated budget delta."""


class NonpositiveShift(ValueError):
    """The zero-order coefficient of a shifted solve must be strictly positive."""


class LinearSolveFailure(RuntimeError):
    """A sparse factorization failed or the linear residual check did not pass.

    The grid's ``GridOperators`` counts a failed factorization all the same
    (``factorizations``, and ``pivoted_interiors`` when it fell back to
    pivoted LU).
    """


class IncompatibleRHS(ValueError):
    """Right-hand side of a pure-flux problem must integrate to zero."""


class GridMismatch(ValueError):
    """Two grid functions live on different grids."""


class NotSolvable(ValueError):
    """A necessary solvability condition on (h, c) is violated."""


class FeasibilityFailure(RuntimeError):
    """No feasible starting point could be constructed for the constrained minimization."""


class NoConvergence(RuntimeError):
    """An iteration exhausted its budget before meeting the tolerance."""


class MarginTooLarge(ValueError):
    """Requested lower-solution margin is not smaller than -c."""


class IntegralNotNegative(ValueError):
    """The construction requires integral(h) < 0."""


class HNotNonpositive(ValueError):
    """The construction requires h <= 0 everywhere."""


class OrderingViolated(RuntimeError):
    """The monotone sandwich failed: non-admissible bounds or a too-coarse grid."""


class NoUpperSolutionFound(RuntimeError):
    """No upper solution could be produced at this c — evidence of unsolvability, not proof.

    ``c_star`` is the fold of the solution branch that was found above c, or
    None when the search ended without one.
    """

    def __init__(self, message: str, c_star: float | None = None):
        super().__init__(message)
        self.c_star = c_star


class BoundBlowup(RuntimeError):
    """Norms recorded along the critical continuation diverged instead of staying bounded."""


class KirchhoffDefect(ValueError):
    """The candidate function violates flux conservation at some vertex."""


class Diverged(RuntimeError):
    """The damped Newton oracle failed to converge."""
