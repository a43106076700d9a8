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

# Cells per block of the field solve.  The closed form and the residual write
# into five block-sized rows (320 KiB, in a typical L2 cache), which a run keeps
# in its diffusion workspace, so no step allocates or faults them in afresh.
BLOCK = 8192

_TINY = float(np.nextafter(0.0, 1.0))


def _residual(r, a, b, c, cdt, p: ModelParams, out=None, tmp=None):
    """G(R) into ``out`` with scratch ``tmp`` (new arrays when None); R / cdt finite or not."""
    with np.errstate(over="ignore"):
        ratio = np.log1p(np.divide(r, cdt, out=out), out=out)
    if ratio.max() == np.inf:
        over = np.isinf(ratio)
        ratio[over] = np.log(r[over]) - np.log(cdt[over])
    # ((ratio - ln((a - r)/a_inf)) - ln((b - r)/b_inf)) + ln((c + r)/c_inf)
    for op, x, ref in ((np.subtract, a, p.a_inf), (np.subtract, b, p.b_inf), (np.add, c, p.c_inf)):
        ratio = op(ratio, np.log(np.divide(op(x, r, out=tmp), ref, out=tmp), out=tmp), out=ratio)
    return ratio


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
    rows=None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve every cell, :data:`BLOCK` cells at a time; see :func:`_solve_block`.

    ``a``, ``b`` and ``c`` share one shape; ``dt`` is a float or an ndarray
    that broadcasts to it.  The cells are independent, so the result does
    not depend on the blocking.  ``rows`` are five scratch rows of at least
    min(BLOCK, cells) doubles, allocated when None.  Returns (r, iterations,
    max_residual) with r and iterations shaped like the cells, iterations in
    the smallest type that holds max_iter.
    """
    shape = a.shape
    a, b, c = a.ravel(), b.ravel(), c.ravel()
    need = (5, min(BLOCK, a.size))
    rows = np.empty(need) if rows is None else rows
    if rows.shape[0] != 5 or rows.shape[1] < need[1]:  # a slice would drop cells
        raise ValueError(f"reaction rows of shape {rows.shape} cannot hold blocks of shape {need}")
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
            params, tol, max_iter, r[block], iterations[block], start, rows,
        )
        max_residual = np.maximum(max_residual, residual)  # NaN propagates, as in np.max
    return r.reshape(shape), iterations.reshape(shape), float(max_residual)


def _solve_block(a, b, c, dt, params: ModelParams, tol: float, max_iter: int,
                 r_out: np.ndarray, iterations: np.ndarray, offset: int, rows) -> float:
    """Closed-form root, then safeguarded Newton over the unconverged cells.

    Solves one block of flat cells in place in ``r_out`` (``rows`` hold the
    closed form, the bracket and the first G), adds the per-cell Newton
    counts to ``iterations`` and returns the largest accepted |G|.  The
    bracket (-min(k- c dt, c), min(a, b)) is narrowed by the sign of G at 0,
    at the closed form and at every iterate.  A Newton step is taken only
    while it lands inside and is below half the step before last (rtsafe's
    test), so it cannot creep toward a singularity; any other step goes
    halfway in the log of the distance to the singularity nearer the bracket.
    A cell converges when |G(R)| <= tol or no double lies strictly inside its
    bracket; it is named by ``offset`` plus its index in the block.  An
    overflowing k- c dt is refused: its equation is not the configured one.
    """
    flat = lambda arr: float(np.broadcast_to(arr, a.shape)[cell])  # noqa: E731
    cdt, big_a, big_b, q, tmp = rows[:, :a.size]
    try:
        with np.errstate(over="raise"):
            np.multiply(np.multiply(params.k_minus, c, out=cdt), dt, out=cdt)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            cell = int(np.argmax(np.isinf(params.k_minus * c * dt)))
        raise ValueError(f"reaction rate k- c dt overflows at cell {offset + cell}: "
                         f"k-={params.k_minus!r} c={flat(c)!r} dt={flat(dt)!r}") from None
    # k- c dt underflows to 0 for dt near 5e-324; its nearest positive double
    # keeps G defined and moves R by less than the last bit of a, b and c.
    np.maximum(cdt, _TINY, out=cdt)
    # The quadratic's bracketed root; q = C/B.  Huge rate constants overflow
    # B; the bracket test below replaces a non-finite root with 0.
    ab_inf, c_inf = params.a_inf * params.b_inf, params.c_inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # A = ab_inf - c_inf cdt;  B = ab_inf (c + cdt) + (c_inf cdt) (a + b)
        np.subtract(ab_inf, np.multiply(c_inf, cdt, out=big_a), out=big_a)
        np.multiply(ab_inf, np.add(c, cdt, out=big_b), out=big_b)
        np.multiply(np.multiply(c_inf, cdt, out=tmp), np.add(a, b, out=q), out=tmp)
        np.add(big_b, tmp, out=big_b)
        # q = (ab_inf c - (c_inf a) b) (cdt / B)
        np.multiply(ab_inf, c, out=q)
        np.subtract(q, np.multiply(np.multiply(c_inf, a, out=tmp), b, out=tmp), out=q)
        np.multiply(q, np.divide(cdt, big_b, out=tmp), out=q)
        # r = (-2 q) / (1 + sqrt(max(0, 1 - ((4 A) q) / B)))
        np.divide(np.multiply(np.multiply(4.0, big_a, out=big_a), q, out=big_a), big_b, out=big_a)
        np.sqrt(np.maximum(0.0, np.subtract(1.0, big_a, out=big_a), out=big_a), out=big_a)
        r = np.divide(np.multiply(-2.0, q, out=tmp), np.add(1.0, big_a, out=big_a), out=r_out)
    s_lo, s_hi = np.negative(np.minimum(cdt, c, out=big_a), out=big_a), np.minimum(a, b, out=tmp)
    np.copyto(r, 0.0, where=~((r > s_lo) & (r < s_hi)))
    g = _residual(r, a, b, c, cdt, params, big_b, q)
    active = ~(np.abs(g, out=q) <= tol)
    if active.any():
        lo, hi = _fold(0.0, _residual(0.0, a, b, c, cdt, params), s_lo, s_hi)
        lo, hi = _fold(r, g, lo, hi)
        before_last = last = np.inf
        # A step or G that overflows is +-inf: the bracket test rejects it or its sign folds.
        with np.errstate(over="ignore"):
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
    return float(np.max(np.abs(g, out=q)))


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
    rows=None,
) -> tuple[State, ReactionSolveResult]:
    """Advance the reaction subproblem in ``state.u``: a* = a - R, b* = b - R, c* = c + R.

    The time stamp is unchanged; the splitting driver owns time.  The
    returned state is ``state`` itself, strictly positive cellwise
    (guaranteed by the root bracket).  The same R is subtracted and added,
    so a* + c* and b* + c* keep a + c and b + c in each cell up to rounding,
    by 2 eps of the sum.  Every R is found, and an a*, b* or c* that would
    overflow is refused, before any row is written; after another error the
    stack's contents are unspecified.  ``rows`` are the solve's scratch rows
    (see :func:`_solve_field`), new ones when None.
    """
    if not dt > 0.0:
        raise PositivityError(f"step_reaction: dt must be positive, got {dt}")
    state.require_positive("step_reaction")
    u = state.u
    r, iterations, max_residual = _solve_field(*u, dt, params, tol, DEFAULT_MAX_ITER, rows)
    if max(r.max(), -r.min()) >= 2.0**970:  # else a - R, b - R, c + R are finite
        with np.errstate(over="ignore"):
            over = np.isinf(u[0] - r) | np.isinf(u[1] - r) | np.isinf(u[2] + r)
        if over.any():
            cell = int(np.argmax(over))
            a, b, c = (float(x.flat[cell]) for x in u)
            raise ValueError(f"reaction update a - R, b - R, c + R overflows at cell {cell}: "
                             f"a={a!r} b={b!r} c={c!r} dt={dt!r}")
    np.subtract(u[:2], r, out=u[:2])
    np.add(u[2], r, out=u[2])
    state.require_positive("step_reaction output")
    return state, ReactionSolveResult(Field(state.grid, r), iterations, max_residual)
