"""Diffusion stage: implicit Euler via matrix-free, spectrally preconditioned CG.

Each species is advanced by solving (I - dt div(D grad)) u = u* with the
divergence-form stencil from :mod:`rxd.grid`.  The operator is symmetric
positive definite, so the solve uses conjugate gradients, applied
matrix-free.  The preconditioner M is the same operator with every face
coefficient replaced by its mean along that axis: on this periodic uniform
grid M is circulant, so the DFT diagonalises it and M^-1 costs one
``rfftn``/``irfftn`` pair.  The initial iterate is M^-1 u*.  For a constant
coefficient M is the operator itself, so the solve finishes in zero CG
iterations unless ``tol`` is below the roundoff of the FFT solve; for
variable coefficients the iteration count stays flat as the grid is
refined (circulant preconditioning, Strang 1986, Chan 1988).

Positivity of the update is a property of the exact solve; it is asserted
after the solve rather than enforced, since clipping would break mass
conservation.  A violation signals a far-too-loose tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, PositivityError
from .grid import Coefficient, DiffusionCoeffs, Field, State, face_coefficient

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class LinearSolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool


class _ImplicitDiffusionOperator:
    """Matrix-free application of (I - dt div(D grad)) on one grid."""

    def __init__(self, grid, d: Coefficient, dt: float):
        self.grid = grid
        self.dt = dt
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

    def apply(self, v: np.ndarray) -> np.ndarray:
        h = self.grid.h
        out = v.copy()
        for axis, dface in enumerate(self.faces):
            array_axis = self.grid.dim - 1 - axis
            flux = dface * (np.roll(v, -1, axis=array_axis) - v) / h
            out -= self.dt * (flux - np.roll(flux, 1, axis=array_axis)) / h
        return out

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """Apply M^-1, the inverse of the operator at mean face coefficients."""
        axes = tuple(range(r.ndim))
        return np.fft.irfftn(np.fft.rfftn(r, axes=axes) / self.symbol, s=r.shape, axes=axes)


def _pcg(op: _ImplicitDiffusionOperator, b: np.ndarray,
         tol: float, max_iter: int) -> tuple[np.ndarray, LinearSolveReport]:
    """Spectrally preconditioned CG from x0 = M^-1 b; residual is relative to ||b||."""
    b_norm = float(np.linalg.norm(b.ravel()))
    if b_norm == 0.0:
        return np.zeros_like(b), LinearSolveReport(0, 0.0, True)
    x = op.precondition(b)
    r = b - op.apply(x)
    rel = float(np.linalg.norm(r.ravel())) / b_norm
    p = None
    iterations = 0
    while rel > tol:
        if iterations >= max_iter:
            report = LinearSolveReport(iterations, rel, False)
            raise ConvergenceError(
                f"CG stalled at relative residual {rel:.3e} after "
                f"{iterations} iterations (tol {tol:.1e})",
                report=report,
            )
        z = op.precondition(r)
        rz_next = float(np.sum(r * z))
        p = z if p is None else z + (rz_next / rz) * p
        rz = rz_next
        ap = op.apply(p)
        alpha = rz / float(np.sum(p * ap))
        x = x + alpha * p
        r = r - alpha * ap
        rel = float(np.linalg.norm(r.ravel())) / b_norm
        iterations += 1
    return x, LinearSolveReport(iterations, rel, True)


def step_diffusion_species(
    u_star: Field,
    d: Coefficient,
    dt: float,
    tol: float = DEFAULT_TOL,
    max_iter: Optional[int] = None,
) -> tuple[Field, LinearSolveReport]:
    """Implicit Euler update of one species: solve (I - dt div(D grad)) u = u*."""
    if not dt > 0.0:
        raise PositivityError(f"step_diffusion_species: dt must be positive, got {dt}")
    u_star.check_finite("u_star")
    if max_iter is None:
        max_iter = 10 * u_star.grid.num_cells
    op = _ImplicitDiffusionOperator(u_star.grid, d, dt)
    x, report = _pcg(op, u_star.values, tol, max_iter)
    return Field(u_star.grid, x), report


def step_diffusion(
    state_star: State,
    coeffs: DiffusionCoeffs,
    dt: float,
    tol: float = DEFAULT_TOL,
    max_iter: Optional[int] = None,
) -> tuple[State, tuple[LinearSolveReport, LinearSolveReport, LinearSolveReport]]:
    """Advance all three species by implicit diffusion; time moves forward by dt.

    The three solves are independent.  The result must be strictly positive;
    if it is not, the linear tolerance is too loose for the data and a
    :class:`PositivityError` is raised instead of silently clipping.
    """
    state_star.require_positive("step_diffusion input")
    fields = []
    reports = []
    for (name, f), d in zip(state_star.species(), coeffs.per_species()):
        u_next, report = step_diffusion_species(f, d, dt, tol, max_iter)
        m = u_next.values.min()
        if not m > 0.0:
            cell = int(np.argmin(u_next.values.ravel()))
            raise PositivityError(
                f"diffusion update lost positivity for species {name} at cell "
                f"{cell} (min {m!r}); tighten the linear solver tolerance"
            )
        fields.append(u_next)
        reports.append(report)
    next_state = State(fields[0], fields[1], fields[2], state_star.time + dt)
    return next_state, (reports[0], reports[1], reports[2])
