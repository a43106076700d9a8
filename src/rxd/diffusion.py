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
per species the face coefficients and the per-axis factors of the
preconditioner's symbol, and one workspace that the reaction and the three
species share.  The stencil, the residual check and the spectral solve
write into the workspace (the FFTs through their ``out=`` arguments); the
spectrum and the symbol live in the stencil's scratch, so each spectral
solve forms the symbol from its factors.  The CG iteration, which a
constant coefficient never reaches, allocates its vectors z, p and A p per
solve.  These in-place forms keep the operation order of the plain array
expressions, so they give the same bits.  Every function advances the
state it is given, and only a state handed to ``on_snapshot`` is copied
before the next step (:func:`rxd.splitting.run_simulation`).  Here each
species is solved into one scratch row, allocated per call, and copied into
its own row after its solve: the solve reads u* until it has formed
x0 = M^-1 u* and the first residual u* - A x0, and x0 is written first.

Positivity of the update is a property of the exact solve; it is asserted
after the solve rather than enforced, since clipping would break mass
conservation.  A loose tolerance can violate it, and so can the spectral
solve's absolute roundoff (~eps max|u*|) at any tolerance; the refusal
names each species' final CG relative residual to tell the two apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import reaction
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
    """Scratch arrays for both stages of one run, all views of one buffer.

    ``flux`` and ``tmp``, the stencil's scratch, are its first two field
    sizes, the complex rfftn spectrum ``spec`` lies at its head with the
    preconditioner's ``symbol`` right after it, and the residual ``res``
    follows them.  The FFTs never run while the stencil does, so these may
    overlap, and the symbol is formed in every spectral solve.  The
    reaction's five block ``rows`` lie at the head too, as the two stages
    never run at once.  No result is left in it between solves.
    """

    def __init__(self, shape: tuple[int, ...]):
        size, half = math.prod(shape), shape[:-1] + (shape[-1] // 2 + 1,)
        nhalf, block = math.prod(half), min(reaction.BLOCK, size)
        end = max(2 * size, 3 * nhalf)
        buf = np.empty(max(end + size, 5 * block))
        self.flux, self.tmp = buf[:size].reshape(shape), buf[size:2 * size].reshape(shape)
        self.spec = buf[:2 * nhalf].view(complex).reshape(half)
        self.symbol = buf[2 * nhalf:3 * nhalf].reshape(half)
        self.res = buf[end:end + size].reshape(shape)
        self.rows = buf[:5 * block].reshape(5, block)


class _ImplicitDiffusionOperator:
    """Matrix-free application of (I - dt div(D grad)) on one grid, over a run's workspace."""

    def __init__(self, grid, d: Coefficient, dt: float, work: _Workspace):
        if not 0.0 < dt < math.inf:
            raise PositivityError(f"diffusion operator: dt must be positive and finite, got {dt}")
        self.grid = grid
        self.dt = dt
        self.work = work
        # Face coefficients per physical axis; floats stay floats.
        self.faces = [face_coefficient(grid, d, axis) for axis in range(grid.dim)]
        # Per-axis factors of M's rfftn symbol 1 + sum_axes (dt 4 mean(D_face)/h^2) sin^2(pi k/N).
        n = grid.n
        self.factors = []
        for axis, dface in enumerate(self.faces):
            with np.errstate(over="ignore", divide="ignore"):  # refused below
                scale = dt * 4.0 * np.mean(dface) / grid.h**2
            if not math.isfinite(grid.dim * float(scale)):  # the symbol sums dim of them
                raise ValueError(f"diffusion coefficient too large for the preconditioner: "
                                 f"dt * 4 * mean(D) / h^2 = {scale:.3g} along axis {axis}")
            k = np.arange(n // 2 + 1 if axis == 0 else n).reshape([-1] + [1] * axis)
            t = scale * np.sin(np.pi * k / n) ** 2
            self.factors.append(1.0 + t if axis == 0 else t)

    def apply(self, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``v - dt * div_grad(v)``, into ``out`` (allocated when None)."""
        w = self.work
        out = div_grad(v, self.faces, self.grid.h, out, w.flux, w.tmp)
        np.multiply(out, self.dt, out=out)
        return np.subtract(v, out, out=out)

    def precondition(self, r: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply M^-1, the inverse of the operator at mean face coefficients.

        The steps of ``irfftn(rfftn(r) / symbol)``, run in the workspace's
        spectrum with the result written into ``out`` (allocated when None).
        The symbol is summed per call, ``(1 + t_x) + t_y (+ t_z)``, as the stencil overwrites it.
        """
        w = self.work
        axes = tuple(range(r.ndim))
        spec = np.fft.rfftn(r, axes=axes, out=w.spec)
        symbol = self.factors[0]
        for t in self.factors[1:]:
            symbol = np.add(symbol, t, out=w.symbol)
        spec /= symbol
        for axis in axes[:-1]:
            np.fft.ifft(spec, axis=axis, out=spec)
        return np.fft.irfft(spec, n=r.shape[-1], axis=-1, out=out)


def build_operators(grid, coeffs: DiffusionCoeffs,
                    dt: float) -> tuple[_ImplicitDiffusionOperator, ...]:
    """The implicit operators of species a, b and c for one grid and dt, over one workspace.

    They are the whole description of a run's diffusion stage: D, dt, the
    grid and the scratch that both stages share.
    """
    work = _Workspace(grid.shape)
    return tuple(_ImplicitDiffusionOperator(grid, d, dt, work)
                 for d in (coeffs.d_a, coeffs.d_b, coeffs.d_c))


@np.errstate(over="ignore", invalid="ignore")  # what is or turns non-finite is refused
def step_diffusion_species(
    u_star: Field,
    op: _ImplicitDiffusionOperator,
    tol: float = DEFAULT_TOL,
    max_iter: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> tuple[Field, LinearSolveReport]:
    """Implicit Euler update of one species: solve (I - dt div(D grad)) u = u*.

    ``op`` is the species' operator from :func:`build_operators`, which
    holds D and dt; u* must lie on its grid.  The solution is written into
    ``out`` (a new array when None, sharing no memory with u*).  The solve is
    spectrally preconditioned CG from x0 = M^-1 u*, its residual relative to ||u*||.
    """
    if op.grid != u_star.grid:
        raise ValueError(f"step_diffusion_species: u_star is on grid {u_star.grid}, "
                         f"its operator on {op.grid}")
    if out is not None and np.may_share_memory(out, u_star.values):
        raise ValueError("step_diffusion_species: out must not share memory with u_star")
    if max_iter is None:
        max_iter = 10 * u_star.grid.num_cells
    b, e = u_star.values, 0
    x = np.empty_like(b) if out is None else out
    b_norm = math.sqrt(b.ravel().dot(b.ravel()))
    if not _NORM_RANGE[0] <= b_norm <= _NORM_RANGE[1]:  # as is a non-finite b
        peak = float(np.max(np.abs(b)))
        if not math.isfinite(peak):
            bad = int(np.flatnonzero(~np.isfinite(b.ravel()))[0])
            raise ValueError(f"u_star has a non-finite value at cell {bad}")
        if peak == 0.0:
            x[...] = 0.0
            return Field(u_star.grid, x), LinearSolveReport(0, 0.0)
        # 2^-e moves the largest |b| to [1/2, 1), so ||b|| lies in the range; as a
        # double 2^-e would overflow for a subnormal peak, so b is scaled by the exponent.
        e = math.frexp(peak)[1]
        b = np.ldexp(b, -e)
        b_norm = math.sqrt(b.ravel().dot(b.ravel()))
    op.precondition(b, x)
    r = np.subtract(b, op.apply(x, op.work.res), out=op.work.res)
    rel = math.sqrt(r.ravel().dot(r.ravel())) / b_norm
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
        rel = math.sqrt(r.ravel().dot(r.ravel())) / b_norm
        iterations += 1
    if e:
        np.ldexp(x, e, out=x)
    return Field(u_star.grid, x), LinearSolveReport(iterations, rel)


def step_diffusion(
    state_star: State,
    ops: tuple[_ImplicitDiffusionOperator, ...],
    tol: float = DEFAULT_TOL,
    max_iter: Optional[int] = None,
) -> tuple[State, tuple[LinearSolveReport, LinearSolveReport, LinearSolveReport]]:
    """Advance ``state_star`` itself by implicit diffusion: its stack in place, its time by dt.

    ``ops`` are the operators of species a, b and c from
    :func:`build_operators`, and dt is theirs.  The three solves are
    independent; each is solved into a scratch row and then copied into its
    row of ``state_star.u`` (after an error the stack's contents are
    unspecified).  The result must be strictly positive; if it is not, a
    :class:`PositivityError` that names each species' final CG relative
    residual is raised instead of silently clipping.
    """
    state_star.require_positive("step_diffusion input")
    scratch = np.empty_like(state_star.u[0])
    reports = []
    for (_, f), op, row in zip(state_star.species(), ops, state_star.u):
        u_next, report = step_diffusion_species(f, op, tol, max_iter, scratch)
        row[...] = u_next.values
        reports.append(report)
    state_star.time += ops[0].dt
    residuals = ", ".join(f"{s} {r.final_relative_residual:.2g}" for s, r in zip("abc", reports))
    state_star.require_positive(f"diffusion update (final CG relative residuals {residuals})")
    return state_star, tuple(reports)
