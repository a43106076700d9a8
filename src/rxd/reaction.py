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
the bracket.  A safeguarded Newton loop polishes it on the cells whose |G|
still exceeds the tolerance, inside the open bracket itself, so no logarithm
is evaluated outside its domain and strict positivity comes from the
bracket.  Newton steps pass rtsafe's test (Press et al., Numerical Recipes);
any other step is a midpoint in the log of the distance to a singularity,
and ln(1 + R/(k- c dt)) is ln R - ln(k- c dt) where R/(k- c dt) overflows.

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
# one block (0.7 MB at this size) stay in a typical L2 cache, and each is
# 64 KiB, below glibc's 128 KiB mmap threshold, so it is reused from the
# heap instead of being mapped and faulted in afresh.
BLOCK = 8192

_TINY = float(np.nextafter(0.0, 1.0))


def _residual(r, a, b, c, cdt, p: ModelParams):
    """G(R); accepts scalars or ndarrays strictly inside the bracket, R / cdt finite or not."""
    with np.errstate(over="ignore"):
        ratio = np.log1p(r / cdt)
    if ratio.max() == np.inf:
        over = np.isinf(ratio)
        ratio[over] = np.log(r[over]) - np.log(cdt[over])
    return (
        ratio
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
    r and iterations shaped like the cells, iterations in the smallest type that holds max_iter.
    """
    shape = a.shape
    a, b, c = a.ravel(), b.ravel(), c.ravel()
    per_cell_dt = isinstance(dt, np.ndarray)
    if per_cell_dt:
        dt = np.broadcast_to(dt, shape).ravel()
    r = np.empty(a.size)
    iterations = np.zeros(a.size, dtype=np.min_scalar_type(max_iter))
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
    The bracket (-min(k- c dt, c), min(a, b)) is narrowed by the sign of G at
    0, at the closed form and at every iterate.  A Newton step is taken only
    while it lands inside and is below half the step before last (rtsafe's
    test), so it cannot creep toward a singularity; any other step goes
    halfway in the log of the distance to the singularity nearer the bracket.
    A cell converges when |G(R)| <= tol or no double lies strictly inside its
    bracket; it is named by ``offset`` plus its index in the block.  An
    overflowing k- c dt is refused: its equation is not the configured one.
    """
    flat = lambda arr: float(np.broadcast_to(arr, a.shape)[cell])  # noqa: E731
    try:
        with np.errstate(over="raise"):
            cdt = params.k_minus * c * dt
    except FloatingPointError:
        with np.errstate(over="ignore"):
            cell = int(np.argmax(np.isinf(params.k_minus * c * dt)))
        raise ValueError(f"reaction rate k- c dt overflows at cell {offset + cell}: "
                         f"k-={params.k_minus!r} c={flat(c)!r} dt={flat(dt)!r}") from None
    # k- c dt underflows to 0 for dt near 5e-324; its nearest positive double
    # keeps G defined and moves R by less than the last bit of a, b and c.
    np.maximum(cdt, _TINY, out=cdt)
    s_lo, s_hi = -np.minimum(cdt, c), np.minimum(a, b)
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
    np.copyto(r, 0.0, where=~((r > s_lo) & (r < s_hi)))
    g = _residual(r, a, b, c, cdt, params)
    active = ~(np.abs(g) <= tol)
    if active.any():
        lo, hi = _fold(0.0, _residual(0.0, a, b, c, cdt, params), s_lo, s_hi)
        lo, hi = _fold(r, g, lo, hi)
        before_last = last = np.inf
        for _ in range(max_iter):
            active &= ~((np.abs(g) <= tol) | (np.nextafter(lo, hi) >= hi))
            if not active.any():
                break
            dx = _newton_step(g, r, a, b, c, cdt)
            cand = r - dx
            # A step below half an ulp moves one ulp toward the root, where the
            # sign of G then closes the bracket.
            cand = np.where(cand == r, np.nextafter(r, np.where(g < 0.0, hi, lo)), cand)
            newton = (cand > lo) & (cand < hi) & (np.abs(dx) < 0.5 * before_last)
            near = np.where(lo - s_lo <= s_hi - hi, s_lo, s_hi)
            distance = np.sqrt(np.abs(lo - near)) * np.sqrt(np.abs(hi - near))
            mid = near + np.sign(r - near) * distance
            mid = np.clip(mid, np.nextafter(lo, hi), np.nextafter(hi, lo))
            step = np.where(newton, cand, mid)
            before_last, last = last, np.abs(step - r)
            np.copyto(r, step, where=active)
            iterations += active
            g = np.where(active, _residual(r, a, b, c, cdt, params), g)
            lo, hi = _fold(r, g, lo, hi)
    if active.any():
        cell = int(np.flatnonzero(active)[0])
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
    Newton counts (uint8, which holds :data:`DEFAULT_MAX_ITER`; their
    ``sum()`` is a uint64), and ``max_residual`` the largest |G| accepted.
    """

    r: Field
    iterations: np.ndarray
    max_residual: float


def step_reaction(
    state: State,
    dt: float,
    params: ModelParams,
    tol: float = DEFAULT_TOL,
    in_place: bool = False,
) -> tuple[State, ReactionSolveResult]:
    """Advance the reaction subproblem: a* = a - R, b* = b - R, c* = c + R.

    The time stamp is unchanged; the splitting driver owns time.  The
    returned state is strictly positive cellwise (guaranteed by the root
    bracket).  The same R is subtracted and added, so a* + c* and b* + c*
    keep a + c and b + c in each cell up to rounding, by 2 eps of the sum.

    The new state is written into a new stack, or into ``state.u`` itself
    when ``in_place`` (every R is found before any row is written; after an
    error its contents are unspecified).
    """
    if not dt > 0.0:
        raise PositivityError(f"step_reaction: dt must be positive, got {dt}")
    state.require_positive("step_reaction")
    r, iterations, max_residual = _solve_field(*state.u, dt, params, tol, DEFAULT_MAX_ITER)
    u = state.u if in_place else np.empty_like(state.u)
    np.subtract(state.u[:2], r, out=u[:2])
    np.add(state.u[2], r, out=u[2])
    star = State.from_stack(state.grid, u, state.time)
    star.require_positive("step_reaction output")
    return star, ReactionSolveResult(Field(state.grid, r), iterations, max_residual)
