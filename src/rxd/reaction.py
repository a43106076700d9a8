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

Multiplying out the logarithms turns G(R) = 0 into the quadratic
a_inf b_inf (R + k- c dt)(c + R) = c_inf k- c dt (a - R)(b - R), i.e.
A R^2 + B R + C = 0 with B > 0.  The root is its cancellation-free closed
form R = -2 (C/B) / (1 + sqrt(1 - 4 A (C/B) / B)), with C/B formed without
C (which underflows for c near 1e-300), or 0 where roundoff puts it outside
the bracket.  A safeguarded Newton loop polishes and backs up that root: it
runs only on cells whose |G| still exceeds the tolerance, and accepts a
Newton candidate only while it stays strictly inside the current
sign-change bracket, else bisects, so no logarithm is evaluated outside its
domain and strict positivity comes from the bracket.

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

# Cells per block of the field solve: the ~10 block-sized temporaries of
# one block (1.3 MB at this size) stay in a typical L2 cache.
BLOCK = 16384

# Shrink factor keeping bracket endpoints strictly inside the singularities.
_EDGE = 1.0 - 1e-15
_TINY = float(np.nextafter(0.0, 1.0))


def _residual(r, a, b, c, cdt, p: ModelParams):
    """G(R); accepts scalars or ndarrays, all strictly inside the bracket."""
    return (
        np.log1p(r / cdt)
        - np.log((a - r) / p.a_inf)
        - np.log((b - r) / p.b_inf)
        + np.log((c + r) / p.c_inf)
    )


def _newton_step(g, r, a, b, c, cdt):
    """G(R) / G'(R), where G' = sum of 1/d over the four distances d > 0 to the
    singularities; scaled by the nearest d, so a subnormal one cannot overflow."""
    d = (r + cdt, a - r, b - r, c + r)
    m = np.min(d, axis=0)
    return g * m / sum(m / x for x in d)


def _fold(point, g, lo, hi):
    """The bracket (lo, hi) narrowed by the sign of G at ``point``."""
    return (np.where(g < 0.0, np.maximum(lo, point), lo),
            np.where(g >= 0.0, np.minimum(hi, point), hi))


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
    """Solve every cell, :data:`BLOCK` cells at a time; see :func:`_solve_block`.

    ``a``, ``b`` and ``c`` share one shape; ``dt`` is a float or an ndarray
    that broadcasts to it.  The cells are independent, so the result does
    not depend on the blocking.  Returns (r, iterations, max_residual) with
    r and iterations shaped like the cells.
    """
    shape = a.shape
    a, b, c = a.ravel(), b.ravel(), c.ravel()
    per_cell_dt = isinstance(dt, np.ndarray)
    if per_cell_dt:
        dt = np.broadcast_to(dt, shape).ravel()
    r = np.empty(a.size)
    iterations = np.zeros(a.size, dtype=np.int64)
    max_residual = 0.0
    for start in range(0, a.size, BLOCK):
        block = slice(start, start + BLOCK)
        residual = _solve_block(
            a[block], b[block], c[block], dt[block] if per_cell_dt else dt,
            params, tol, max_iter, r[block], iterations[block], start,
        )
        max_residual = np.maximum(max_residual, residual)  # NaN propagates, as in np.max
    return r.reshape(shape), iterations.reshape(shape), float(max_residual)


def _solve_block(a, b, c, dt, params: ModelParams, tol: float, max_iter: int,
                 r_out: np.ndarray, iterations: np.ndarray, offset: int) -> float:
    """Closed-form root, then safeguarded Newton over the unconverged cells.

    Solves one block of flat cells in place in ``r_out``, adds the per-cell
    Newton counts to ``iterations`` and returns the largest accepted |G|.
    Converges per cell when |G(R)| <= tol, or when no double lies strictly
    inside the sign-change bracket (near the logarithmic singularities, or
    where k- c dt is subnormal, G cannot be resolved to tol, but the root
    itself is then resolved to the last ulp).  A stalled cell is reported by its
    index in the field: the block's ``offset`` plus its index in the block.
    """
    # k- c dt underflows to 0 for dt near 5e-324; its nearest positive double
    # keeps G defined and moves R by less than the last bit of a, b and c.
    cdt = params.k_minus * c * dt
    np.maximum(cdt, _TINY, out=cdt)
    lo = -np.minimum(cdt, c) * _EDGE
    hi = np.minimum(a, b) * _EDGE
    # The quadratic's bracketed root; q = C/B.  Huge rate constants overflow
    # B; the bracket test below replaces a non-finite root with 0.
    ab_inf = params.a_inf * params.b_inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        big_a = ab_inf - params.c_inf * cdt
        big_b = ab_inf * (c + cdt) + params.c_inf * cdt * (a + b)
        q = (ab_inf * c - params.c_inf * a * b) * (cdt / big_b)
        r = np.divide(-2.0 * q, 1.0 + np.sqrt(np.maximum(0.0, 1.0 - 4.0 * big_a * q / big_b)),
                      out=r_out)
    del big_a, big_b, q
    np.copyto(r, 0.0, where=~((r > lo) & (r < hi)))
    g = _residual(r, a, b, c, cdt, params)
    active = ~(np.abs(g) <= tol)
    if active.any():
        # G(R) = ln(1 + R/cdt) + H(R) with H increasing and H(0) = G(0), so
        # the root lies between 0 and cdt expm1(-G(0)).  The signs of G at 0,
        # at twice that bound and at the closed form bracket it at its own
        # scale, which lies up to 1e300 below min(a, b) when cdt is
        # subnormal: too far to bisect.
        g0 = _residual(0.0, a, b, c, cdt, params)
        with np.errstate(over="ignore"):
            far = 2.0 * cdt * np.expm1(-g0)
        far = np.where((far > lo) & (far < hi), far, 0.0)
        # A root within the _EDGE margin of a singularity lies beyond a shrunk
        # end: G >= 0 at lo, or G < 0 at hi.  G is increasing, so only the end
        # on the side of the root that G(0) points to can hold it.  That end is
        # then the answer, and folding it below leaves no double inside the
        # bracket.  G is -inf at an end that rounds onto its singularity, +inf
        # where hi/cdt overflows.
        end = np.where(g0 >= 0.0, lo, hi)
        with np.errstate(divide="ignore", over="ignore"):
            g_end = _residual(end, a, b, c, cdt, params)
        beyond = active & np.where(g0 >= 0.0, g_end >= 0.0, g_end < 0.0)
        np.copyto(r, end, where=beyond)
        g = np.where(beyond, g_end, g)
        for point, g_point in ((0.0, g0), (far, _residual(far, a, b, c, cdt, params)), (r, g)):
            lo, hi = _fold(point, g_point, lo, hi)
        for _ in range(max_iter):
            active &= ~((np.abs(g) <= tol) | (np.nextafter(lo, hi) >= hi))
            if not active.any():
                break
            mid = 0.5 * (lo + hi)
            cand = r - _newton_step(g, r, a, b, c, cdt)
            # A step below half an ulp moves one ulp toward the root, where the
            # sign of G then closes the bracket.
            cand = np.where(cand == r, np.nextafter(r, mid), cand)
            step = np.where((cand > lo) & (cand < hi), cand, mid)
            np.copyto(r, step, where=active)
            iterations += active
            g = np.where(active, _residual(r, a, b, c, cdt, params), g)
            lo, hi = _fold(r, g, lo, hi)
    if active.any():
        cell = int(np.flatnonzero(active)[0])
        flat = lambda arr: float(np.broadcast_to(arr, a.shape)[cell])  # noqa: E731
        raise ConvergenceError(
            f"reaction solve stalled after {max_iter} iterations at cell {offset + cell}: "
            f"a={flat(a)!r} b={flat(b)!r} c={flat(c)!r} dt={flat(dt)!r} "
            f"residual {flat(np.abs(g))!r} > tol {tol!r}"
        )
    return float(np.max(np.abs(g)))


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
) -> tuple[State, ReactionSolveResult]:
    """Advance the reaction subproblem: a* = a - R, b* = b - R, c* = c + R.

    The time stamp is unchanged; the splitting driver owns time.  The
    returned state is strictly positive cellwise (guaranteed by the root
    bracket).  The same R is subtracted and added, so a* + c* and b* + c*
    keep a + c and b + c in each cell up to rounding, by 2 eps of the sum.
    """
    if not dt > 0.0:
        raise PositivityError(f"step_reaction: dt must be positive, got {dt}")
    state.require_positive("step_reaction")
    r, iterations, max_residual = _solve_field(*state.u, dt, params, tol, DEFAULT_MAX_ITER)
    u = state.u.copy()
    u[:2] -= r
    u[2] += r
    star = State.from_stack(state.grid, u, state.time)
    star.require_positive("step_reaction output")
    return star, ReactionSolveResult(Field(state.grid, r), iterations, max_residual)
