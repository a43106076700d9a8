"""Diffusion stage: implicit Euler via matrix-free, spectrally preconditioned CG.

Each species (one row of the stacked state) is advanced by solving
(I - dt div(D grad)) u = u*; the operator applies the one divergence-form
stencil, :func:`rxd.grid.div_grad`, as ``v - dt L(v)``.  It is symmetric
positive definite, so the solve uses conjugate gradients, applied
matrix-free.  The preconditioner M is the same operator with every face
coefficient replaced by its mean along that axis: on this periodic uniform
grid M is circulant, so the DFT diagonalises it and M^-1 costs one
``rfftn``/``irfftn`` pair.  The initial iterate is M^-1 u*.  For a constant
coefficient M is the operator itself, so the solve finishes in zero CG
iterations unless ``tol`` is below the roundoff of the FFT solve; for
variable coefficients the iteration count stays flat as the grid is
refined (circulant preconditioning, Strang 1986, Chan 1988).

A run builds what it does not change once, through :func:`build_operators`:
per species the face coefficients and the preconditioner's symbol, and one
workspace of scratch arrays that the three species share.  The stencil,
the residual check and the spectral solve write into the workspace (the
FFTs through their ``out=`` arguments); the CG iteration, which a constant
coefficient never reaches, allocates its vectors z, p and A p per solve.
These in-place forms keep the operation order of the plain array
expressions, so they give the same bits.  A step may run in place on the
input stack: each species is then solved into one scratch row, allocated
per call, and copied into its own row after its solve, because CG reads u*
until it has converged.  Into a new stack each solution goes straight
into its row.  The driver runs the stage in place on the stack the
reaction stage has just written.

Positivity of the update is a property of the exact solve; it is asserted
after the solve rather than enforced, since clipping would break mass
conservation.  A violation signals a far-too-loose tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, PositivityError
from .grid import Coefficient, DiffusionCoeffs, Field, State, div_grad, face_coefficient

DEFAULT_TOL = 1e-10

# A right-hand side with ||b|| in this range is solved as given: the squares
# and inner products of CG stay normal and finite for entries down to
# 2^-100 ||b|| and operator norms up to 2^400.  Outside it, b is first scaled
# by a power of two; that is exact, so a solve inside the range keeps its bits.
_NORM_RANGE = (2.0**-300, 2.0**300)


@dataclass(frozen=True)
class LinearSolveReport:
    iterations: int
    final_relative_residual: float


class _Workspace:
    """Scratch arrays for the diffusion solves of one run.

    ``flux`` and ``tmp`` are the stencil's scratch, ``res`` holds the
    residual and ``spec`` the rfftn spectrum of the spectral solve.  One
    workspace serves the three species of every step in turn; no result is
    left in it between solves.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.flux = np.empty(shape)
        self.tmp = np.empty(shape)
        self.res = np.empty(shape)
        self.spec = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)


class _ImplicitDiffusionOperator:
    """Matrix-free application of (I - dt div(D grad)) on one grid."""

    def __init__(self, grid, d: Coefficient, dt: float, work: Optional[_Workspace] = None):
        self.grid = grid
        self.d = d
        self.dt = dt
        self.work = _Workspace(grid.shape) if work is None else work
        # Face coefficients per physical axis; floats stay floats.
        self.faces = [face_coefficient(grid, d, axis) for axis in range(grid.dim)]
        # rfftn symbol of M: 1 + sum_axes (dt 4 mean(D_face) / h^2) sin^2(pi k / N).
        n = grid.n
        self.symbol = np.ones([n] * (grid.dim - 1) + [n // 2 + 1])
        for axis, dface in enumerate(self.faces):
            with np.errstate(over="ignore", divide="ignore"):  # refused below
                scale = dt * 4.0 * np.mean(dface) / grid.h**2
            if not math.isfinite(grid.dim * float(scale)):  # the symbol sums dim of them
                raise ValueError(f"diffusion coefficient too large for the preconditioner: "
                                 f"dt * 4 * mean(D) / h^2 = {scale:.3g} along axis {axis}")
            array_axis = grid.dim - 1 - axis
            k = np.arange(self.symbol.shape[array_axis]).reshape(
                [-1 if i == array_axis else 1 for i in range(grid.dim)])
            self.symbol += scale * np.sin(np.pi * k / n) ** 2

    def apply(self, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``v - dt * div_grad(v)``, into ``out`` (allocated when None)."""
        w = self.work
        out = div_grad(v, self.faces, self.grid.h, out, w.flux, w.tmp)
        np.multiply(out, self.dt, out=out)
        return np.subtract(v, out, out=out)

    def residual(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``b - (x - dt * div_grad(x))``, into the workspace's ``res``."""
        r = self.apply(x, self.work.res)
        return np.subtract(b, r, out=r)

    def precondition(self, r: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply M^-1, the inverse of the operator at mean face coefficients.

        The steps of ``irfftn(rfftn(r) / symbol)``, run in the workspace's
        spectrum with the result written into ``out`` (allocated when None).
        """
        axes = tuple(range(r.ndim))
        spec = np.fft.rfftn(r, axes=axes, out=self.work.spec)
        spec /= self.symbol
        for axis in axes[:-1]:
            np.fft.ifft(spec, axis=axis, out=spec)
        return np.fft.irfft(spec, n=r.shape[-1], axis=-1, out=out)


def _pcg(op: _ImplicitDiffusionOperator, b: np.ndarray, x: np.ndarray,
         tol: float, max_iter: int) -> LinearSolveReport:
    """Spectrally preconditioned CG into ``x`` from x0 = M^-1 b; residual is relative to ||b||."""
    b_norm = float(np.linalg.norm(b.ravel()))
    if not _NORM_RANGE[0] <= b_norm <= _NORM_RANGE[1]:
        peak = float(np.max(np.abs(b)))
        if peak == 0.0:
            x[...] = 0.0
            return LinearSolveReport(0, 0.0)
        # 2^-e moves the largest |b| to [1/2, 1); as a double it would overflow
        # for a subnormal peak, so the arrays are scaled by the exponent.
        e = math.frexp(peak)[1]
        report = _pcg(op, np.ldexp(b, -e), x, tol, max_iter)
        np.ldexp(x, e, out=x)
        return report
    op.precondition(b, x)
    r = op.residual(b, x)
    rel = float(np.linalg.norm(r.ravel())) / b_norm
    iterations = 0
    while not rel <= tol:  # a NaN residual enters the loop, to be refused
        if iterations >= max_iter or not math.isfinite(rel):
            raise ConvergenceError(f"CG stalled at relative residual {rel:.3e} after "
                                   f"{iterations} iterations (tol {tol:.1e})")
        if iterations == 0:  # z, p and A p; a constant coefficient never gets here
            z, p, ap = (np.empty_like(x) for _ in range(3))
        op.precondition(r, z)
        # ap, then z once p holds it, serve as scratch for the products.
        rz_next = float(np.sum(np.multiply(r, z, out=ap)))
        if iterations == 0:
            p[...] = z
        else:
            p *= rz_next / rz
            p += z
        rz = rz_next
        op.apply(p, ap)
        pap = float(np.sum(np.multiply(p, ap, out=z)))
        if not (0.0 < rz < math.inf and 0.0 < pap < math.inf):  # breakdown: CG divides by both
            raise ConvergenceError(f"CG broke down after {iterations} iterations: "
                                   f"r.z = {rz!r}, p.Ap = {pap!r}")
        alpha = rz / pap
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(ap, alpha, out=z)
        rel = float(np.linalg.norm(r.ravel())) / b_norm
        iterations += 1
    return LinearSolveReport(iterations, rel)


def build_operators(grid, coeffs: DiffusionCoeffs,
                    dt: float) -> tuple[_ImplicitDiffusionOperator, ...]:
    """The implicit operators of species a, b and c for one grid and dt, over one workspace."""
    work = _Workspace(grid.shape)
    return tuple(_ImplicitDiffusionOperator(grid, d, dt, work)
                 for d in (coeffs.d_a, coeffs.d_b, coeffs.d_c))


def step_diffusion_species(
    u_star: Field,
    d: Coefficient,
    dt: float,
    tol: float = DEFAULT_TOL,
    max_iter: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    op: Optional[_ImplicitDiffusionOperator] = None,
) -> tuple[Field, LinearSolveReport]:
    """Implicit Euler update of one species: solve (I - dt div(D grad)) u = u*.

    The solution is written into ``out`` (a new array when None, sharing no
    memory with u*).  ``op`` is the operator for ``d`` and ``dt`` on u*'s
    grid, with its workspace, and any other op is refused; when None one is
    built for this call.
    """
    if not dt > 0.0:
        raise PositivityError(f"step_diffusion_species: dt must be positive, got {dt}")
    if not np.all(np.isfinite(u_star.values)):
        bad = int(np.flatnonzero(~np.isfinite(u_star.values.ravel()))[0])
        raise ValueError(f"u_star has a non-finite value at cell {bad}")
    if out is not None and np.may_share_memory(out, u_star.values):
        raise ValueError("step_diffusion_species: out must not share memory with u_star")
    if max_iter is None:
        max_iter = 10 * u_star.grid.num_cells
    if op is None:
        op = _ImplicitDiffusionOperator(u_star.grid, d, dt)
    elif (op.grid, op.d, op.dt) != (u_star.grid, d, dt):  # op would silently replace them
        raise ValueError(f"step_diffusion_species: op was built for grid, d, dt = {op.grid}, "
                         f"{op.d!r}, {op.dt!r}, not {u_star.grid}, {d!r}, {dt!r}")
    x = np.empty_like(u_star.values) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):  # _pcg refuses what turns non-finite
        report = _pcg(op, u_star.values, x, tol, max_iter)
    return Field(u_star.grid, x), report


def step_diffusion(
    state_star: State,
    coeffs: DiffusionCoeffs,
    dt: float,
    tol: float = DEFAULT_TOL,
    max_iter: Optional[int] = None,
    ops: Optional[tuple[_ImplicitDiffusionOperator, ...]] = None,
    in_place: bool = False,
) -> tuple[State, tuple[LinearSolveReport, LinearSolveReport, LinearSolveReport]]:
    """Advance all three species by implicit diffusion; time moves forward by dt.

    The three solves are independent; each writes its row of a new stack,
    or of ``state_star.u`` itself when ``in_place`` (each species is then
    solved into a scratch row first; after an error the stack's contents
    are unspecified).  ``ops`` are the operators of :func:`build_operators`
    for ``coeffs`` and ``dt``, built here when None.  The result must be
    strictly positive; if it is not, the linear tolerance is too loose for
    the data and a :class:`PositivityError` is raised instead of silently
    clipping.
    """
    state_star.require_positive("step_diffusion input")
    if ops is None:
        ops = build_operators(state_star.grid, coeffs, dt)
    u = state_star.u if in_place else np.empty_like(state_star.u)
    scratch = np.empty_like(u[0]) if in_place else None
    reports = []
    for (_, f), d, op, row in zip(state_star.species(), (coeffs.d_a, coeffs.d_b, coeffs.d_c),
                                  ops, u):
        u_next, report = step_diffusion_species(f, d, dt, tol, max_iter,
                                                row if scratch is None else scratch, op)
        row[...] = u_next.values  # no copy when the solve wrote into row
        reports.append(report)
    state = State.from_stack(state_star.grid, u, state_star.time + dt)
    state.require_positive("diffusion update (tighten the linear solver tolerance)")
    return state, tuple(reports)
