"""Reaction stage: implicit cellwise solve of the reaction-trajectory equation.

One reaction step for A + B <=> C advances each cell by the number of net
forward reactions R over the step, found as the root of the monotone scalar
function

    G(R) = ln(1 + R / (k- c dt)) - ln((a - R)/a_inf) - ln((b - R)/b_inf)
                                 + ln((c + R)/c_inf)

on the open bracket (-min(k- c dt, c), min(a, b)).  G decreases to -inf at
the left end (ln(1 + R/(k- c dt)) or ln(c + R) diverges there, whichever
singularity is nearer) and grows to +inf at the right end, so the root
exists, is unique, and automatically keeps a - R, b - R, c + R and
R + k- c dt strictly positive.  The trajectory counter resets to zero at
the start of every step.

The root is found by safeguarded Newton iteration: a Newton candidate is
accepted only while it stays strictly inside the current sign-change
bracket, otherwise the step falls back to bisection, so no logarithm is
evaluated outside its domain.  G is first evaluated at two points, R = 0
and the linearly implicit rate estimate

    R1 = dt (k+ a b - k- c) / (1 + dt (k+ (a + b) + k-)),

one backward-Euler step of the reaction ODE linearised at (a, b, c), or 0
where R1 falls outside the bracket.  Both points tighten the bracket.
Newton starts from R1 where G(R1) has the sign of G(0) (R1 then lies
between 0 and the root) or where |G(R1)| < 1/2, and from R = 0 elsewhere.
Choosing by the smaller |G| instead can start Newton just past a root that
sits next to a singularity, where its steps leave the bracket and bisection
needs hundreds of halvings.

There is one Newton loop, vectorized over cells.  The scalar
:func:`solve_reaction_cell` validates its inputs and runs that loop on
one-element arrays, so the scalar and the field solve agree bitwise by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PositivityError
from .grid import Field, ModelParams, State

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100

# Shrink factor keeping bracket endpoints strictly inside the singularities.
_EDGE = 1.0 - 1e-15
_EPS = float(np.finfo(float).eps)


def _residual(r, a, b, c, cdt, p: ModelParams):
    """G(R); accepts scalars or ndarrays, all strictly inside the bracket."""
    return (
        np.log1p(r / cdt)
        - np.log((a - r) / p.a_inf)
        - np.log((b - r) / p.b_inf)
        + np.log((c + r) / p.c_inf)
    )


def _slope(r, a, b, c, cdt):
    """G'(R) > 0 on the bracket."""
    return 1.0 / (r + cdt) + 1.0 / (a - r) + 1.0 / (b - r) + 1.0 / (c + r)


def solve_reaction_cell(
    a: float,
    b: float,
    c: float,
    dt: float,
    params: ModelParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Solve one cell's trajectory equation; returns the increment R.

    Runs the field solve on one-element arrays; see :func:`_solve_field`
    for the stopping rule.
    """
    for name, v in (("a", a), ("b", b), ("c", c), ("dt", dt), ("tol", tol)):
        if not v > 0.0:
            raise PositivityError(f"solve_reaction_cell: {name} must be positive, got {v}")
    cells = (np.array([float(v)]) for v in (a, b, c))
    r, _, _ = _solve_field(*cells, dt, params, tol, max_iter)
    return float(r[0])


def _solve_field(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    dt,
    params: ModelParams,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Safeguarded Newton over all cells at once; converged cells are frozen.

    ``dt`` is a float or an array that broadcasts against the cells.
    Converges per cell when |G(R)| <= tol, or when the sign-change bracket
    has collapsed to machine width (near the logarithmic singularities the
    residual cannot be evaluated below roundoff, but the root itself is
    then resolved to the last ulp).  Returns (r, iterations, max_residual).
    """
    cdt = params.k_minus * c * dt
    lo = -np.minimum(cdt, c) * _EDGE
    hi = np.minimum(a, b) * _EDGE
    g = _residual(0.0, a, b, c, cdt, params)
    np.maximum(lo, 0.0, out=lo, where=g < 0.0)
    np.minimum(hi, 0.0, out=hi, where=g >= 0.0)
    # Linearly implicit rate estimate R1, replaced by 0 outside the bracket.
    r = (params.k_plus * a * b - params.k_minus * c) * dt
    r /= 1.0 + dt * (params.k_plus * (a + b) + params.k_minus)
    np.copyto(r, 0.0, where=~((r > lo) & (r < hi)))
    g1 = _residual(r, a, b, c, cdt, params)
    np.maximum(lo, r, out=lo, where=g1 < 0.0)
    np.minimum(hi, r, out=hi, where=g1 >= 0.0)
    # Start from R1 only where it lies between 0 and the root or is close to
    # it; the module docstring says why not by the smaller |G|.
    from_r1 = ((g1 < 0.0) == (g < 0.0)) | (np.abs(g1) < 0.5)
    np.copyto(r, 0.0, where=~from_r1)
    np.copyto(g, g1, where=from_r1)
    del g1, from_r1
    iterations = np.zeros(a.shape, dtype=np.int64)
    active = np.ones(a.shape, dtype=bool)
    for _ in range(max_iter):
        width_ok = (hi - lo) <= 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi))
        active &= ~((np.abs(g) <= tol) | width_ok)
        if not active.any():
            break
        go_lo = active & (g < 0.0)
        lo = np.where(go_lo, r, lo)
        hi = np.where(active & (g >= 0.0), r, hi)
        cand = r - g / _slope(r, a, b, c, cdt)
        step = np.where((cand > lo) & (cand < hi), cand, 0.5 * (lo + hi))
        r = np.where(active, step, r)
        iterations += active
        g = np.where(active, _residual(r, a, b, c, cdt, params), g)
    if active.any():
        cell = int(np.flatnonzero(active.ravel())[0])
        flat = lambda arr: float(np.broadcast_to(arr, a.shape).ravel()[cell])  # noqa: E731
        raise ConvergenceError(
            f"reaction solve stalled after {max_iter} iterations at cell {cell}: "
            f"a={flat(a)!r} b={flat(b)!r} c={flat(c)!r} dt={flat(dt)!r} "
            f"residual {flat(np.abs(g))!r} > tol {tol!r}"
        )
    return r, iterations, float(np.max(np.abs(g)))


@dataclass
class ReactionSolveResult:
    """Per-step outcome of the reaction stage.

    ``r`` holds the per-cell trajectory increments (strictly inside
    (-min(k- c dt, c), min(a, b)) cellwise), ``iterations`` the per-cell
    Newton counts, and ``max_residual`` the largest |G| accepted.
    """

    r: Field
    iterations: np.ndarray
    max_residual: float


def step_reaction(
    state: State,
    dt: float,
    params: ModelParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[State, ReactionSolveResult]:
    """Advance the reaction subproblem: a* = a - R, b* = b - R, c* = c + R.

    The time stamp is unchanged; the splitting driver owns time.  The
    returned state is strictly positive cellwise (guaranteed by the root
    bracket).  Note a* + c* == a + c and b* + c* == b + c exactly, cell by
    cell, since the same R is added and subtracted.
    """
    if not dt > 0.0:
        raise PositivityError(f"step_reaction: dt must be positive, got {dt}")
    state.require_positive("step_reaction")
    r, iterations, max_residual = _solve_field(*state.u, dt, params, tol, max_iter)
    u = state.u.copy()
    u[:2] -= r
    u[2] += r
    star = State.from_stack(state.grid, u, state.time)
    star.require_positive("step_reaction output")
    return star, ReactionSolveResult(Field(state.grid, r), iterations, max_residual)
