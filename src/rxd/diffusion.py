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
FFTs through their ``out=`` arguments) and each solution goes straight into
its row of the output stack.  These in-place forms keep the operation order
of the plain array expressions, so they give the same bits as those would.
The output stack may be a stack the caller no longer needs; the driver
passes one only when no caller holds it.

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


@dataclass(frozen=True)
class LinearSolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool


class _Workspace:
    """Scratch arrays for the diffusion solves of one run.

    ``flux`` and ``tmp`` are the stencil's scratch, ``res`` holds the
    residual and ``spec`` the rfftn spectrum of the spectral solve; the CG
    vectors z, p and A p are allocated on first use.  One workspace serves
    the three species of every step in turn; no result is left in it
    between solves.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self.flux = np.empty(shape)
        self.tmp = np.empty(shape)
        self.res = np.empty(shape)
        self.spec = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
        self._cg = None

    def cg_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._cg is None:
            self._cg = tuple(np.empty(self.shape) for _ in range(3))
        return self._cg


class _ImplicitDiffusionOperator:
    """Matrix-free application of (I - dt div(D grad)) on one grid."""

    def __init__(self, grid, d: Coefficient, dt: float, work: Optional[_Workspace] = None):
        self.grid = grid
        self.dt = dt
        self.work = _Workspace(grid.shape) if work is None else work
        # Face coefficients per physical axis; floats stay floats.
        self.faces = [face_coefficient(grid, d, axis) for axis in range(grid.dim)]
        # rfftn symbol of M: 1 + dt sum_axes (4 mean(D_face) / h^2) sin^2(pi k / N).
        n = grid.n
        self.symbol = np.ones([n] * (grid.dim - 1) + [n // 2 + 1])
        for axis, dface in enumerate(self.faces):
            array_axis = grid.dim - 1 - axis
            k = np.arange(self.symbol.shape[array_axis]).reshape(
                [-1 if i == array_axis else 1 for i in range(grid.dim)])
            self.symbol += dt * 4.0 * np.mean(dface) / grid.h**2 * np.sin(np.pi * k / n) ** 2

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
    if b_norm == 0.0:
        x[...] = 0.0
        return LinearSolveReport(0, 0.0, True)
    op.precondition(b, x)
    r = op.residual(b, x)
    rel = float(np.linalg.norm(r.ravel())) / b_norm
    iterations = 0
    while not rel <= tol:  # a NaN residual enters the loop, to be refused
        if iterations >= max_iter or not math.isfinite(rel):
            report = LinearSolveReport(iterations, rel, False)
            raise ConvergenceError(
                f"CG stalled at relative residual {rel:.3e} after "
                f"{iterations} iterations (tol {tol:.1e})",
                report=report,
            )
        z, p, ap = op.work.cg_vectors()
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
        alpha = rz / float(np.sum(np.multiply(p, ap, out=z)))
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(ap, alpha, out=z)
        rel = float(np.linalg.norm(r.ravel())) / b_norm
        iterations += 1
    return LinearSolveReport(iterations, rel, True)


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

    The solution is written into ``out`` (a new array when None).  ``op`` is
    the operator for ``d`` and ``dt`` on u*'s grid, with its workspace; when
    None one is built for this call.
    """
    if not dt > 0.0:
        raise PositivityError(f"step_diffusion_species: dt must be positive, got {dt}")
    if not np.all(np.isfinite(u_star.values)):
        bad = int(np.flatnonzero(~np.isfinite(u_star.values.ravel()))[0])
        raise ValueError(f"u_star has a non-finite value at cell {bad}")
    if max_iter is None:
        max_iter = 10 * u_star.grid.num_cells
    if op is None:
        op = _ImplicitDiffusionOperator(u_star.grid, d, dt)
    x = np.empty_like(u_star.values) if out is None else out
    report = _pcg(op, u_star.values, x, tol, max_iter)
    return Field(u_star.grid, x), report


def step_diffusion(
    state_star: State,
    coeffs: DiffusionCoeffs,
    dt: float,
    tol: float = DEFAULT_TOL,
    max_iter: Optional[int] = None,
    ops: Optional[tuple[_ImplicitDiffusionOperator, ...]] = None,
    out: Optional[np.ndarray] = None,
) -> tuple[State, tuple[LinearSolveReport, LinearSolveReport, LinearSolveReport]]:
    """Advance all three species by implicit diffusion; time moves forward by dt.

    The three solves are independent; each writes its row of the new stack
    ``out`` (a new array when None; it must not be ``state_star.u``).
    ``ops`` are the operators of :func:`build_operators` for ``coeffs`` and
    ``dt``, built here when None.  The result must be strictly positive; if
    it is not, the linear tolerance is too loose for the data and a
    :class:`PositivityError` is raised instead of silently clipping.
    """
    state_star.require_positive("step_diffusion input")
    if ops is None:
        ops = build_operators(state_star.grid, coeffs, dt)
    u = np.empty_like(state_star.u) if out is None else out
    reports = []
    for (_, f), d, op, row in zip(state_star.species(), (coeffs.d_a, coeffs.d_b, coeffs.d_c),
                                  ops, u):
        u_next, report = step_diffusion_species(f, d, dt, tol, max_iter, row, op)
        row[...] = u_next.values  # no copy when the solve wrote into row
        reports.append(report)
    state = State.from_stack(state_star.grid, u, state_star.time + dt)
    state.require_positive("diffusion update (tighten the linear solver tolerance)")
    return state, tuple(reports)
