"""Cell-centered periodic structured grids, scalar fields, and discrete operators.

The grid is a uniform box in 1, 2 or 3 dimensions with the same number of
cells N and the same spacing h along every axis.  Unknowns live at cell
centers ``lower + (i + 1/2) h``.  Field values are stored as an ndarray of
shape ``(N,) * dim`` in C order with the x index varying fastest, i.e. the
array axes are ordered (z, y, x) in 3D and (y, x) in 2D.

A :class:`State` stores its three species in one array ``u`` of shape
``(3, *grid.shape)`` with rows in the order a, b, c; ``state.a``, ``state.b``
and ``state.c`` are :class:`Field` views of those rows, so writing through a
view writes into ``u``.

Besides the containers, this module provides the discrete L2 inner product
and max norm, the variable-coefficient centered Laplacian in divergence
(flux) form (:func:`div_grad`, the one stencil the diffusion solve also
applies) and the discrete free energy of a three-species state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import PositivityError

# Relative slack for floating-point comparisons of grid geometry.
_GEOM_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered periodic box with equal spacing on all axes.

    Attributes:
        dim: spatial dimension, 1, 2 or 3.
        n: number of cells per axis (equal on all axes).
        lower, upper: domain bounds per axis, ordered (x, y, z).
        h: cell spacing, identical on every axis.
    """

    dim: int
    n: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    h: float = field(init=False)

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 1:
            raise ValueError(f"cells per axis must be positive, got {self.n}")
        lower = tuple(float(x) for x in self.lower)
        upper = tuple(float(x) for x in self.upper)
        if len(lower) != self.dim or len(upper) != self.dim:
            raise ValueError(
                f"lower/upper must have {self.dim} entries, "
                f"got {len(lower)} and {len(upper)}"
            )
        if not all(map(math.isfinite, lower + upper)):
            raise ValueError(f"domain bounds must be finite, got lower={lower}, upper={upper}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        spacings = [(u - l) / self.n for l, u in zip(lower, upper)]
        if min(spacings) <= 0.0:
            raise ValueError(f"degenerate domain: lower={lower}, upper={upper}")
        h = spacings[0]
        for s in spacings[1:]:
            if abs(s - h) > _GEOM_RTOL * abs(h):
                raise ValueError(
                    f"spacing must match on all axes, got {spacings}"
                )
        try:
            volume = h**self.dim
        except OverflowError:
            volume = math.inf
        if not math.isfinite(volume):
            raise ValueError(f"cell volume h**{self.dim} is not finite for h = {h!r}")
        object.__setattr__(self, "h", h)

    @classmethod
    def box(cls, dim: int, n: int, lower: float = 0.0, upper: float = 1.0) -> Grid:
        """Cube (lower, upper)^dim with n cells per axis."""
        return cls(dim, n, (lower,) * dim, (upper,) * dim)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def num_cells(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along physical axis (0 = x)."""
        return self.lower[axis] + (np.arange(self.n) + 0.5) * self.h

    def mesh(self, face_axis: Optional[int] = None) -> tuple[np.ndarray, ...]:
        """Coordinate arrays (X, Y, Z)[:dim] of cell centers, each of shape ``self.shape``.

        Along physical axis ``face_axis`` (when given) entry i is instead the
        face ``lower + (i + 1) h`` between cell i and its periodic successor.
        x varies along the last array axis (a C-order flatten has x fastest).
        """
        axes = [self.lower[p] + (np.arange(self.n) + (1.0 if p == face_axis else 0.5)) * self.h
                for p in range(self.dim)]
        grids = np.meshgrid(*axes[::-1], indexing="ij")
        return tuple(grids[::-1])

    def same_domain(self, other: Grid) -> bool:
        """True when both grids cover the same physical box (resolution may differ)."""
        if self.dim != other.dim:
            return False
        scale = max(abs(v) for v in (*self.lower, *self.upper, 1.0))
        return all(
            abs(a - b) <= _GEOM_RTOL * scale
            for a, b in zip(self.lower + self.upper, other.lower + other.upper)
        )


@dataclass
class Field:
    """One scalar value per cell of a :class:`Grid`.

    ``values`` has shape ``grid.shape`` (row-major, x fastest); any input
    array of the right size is accepted and converted to float64.  A float64
    array is not copied, so a Field can be a view into a larger array.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size != self.grid.num_cells:
            raise ValueError(
                f"field has {v.size} values, grid has {self.grid.num_cells} cells"
            )
        self.values = v.reshape(self.grid.shape)

    @classmethod
    def full(cls, grid: Grid, value: float) -> Field:
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[..., np.ndarray]) -> Field:
        """Sample ``fn(x[, y[, z]])`` at cell centers (vectorized over ndarrays)."""
        return cls(grid, np.asarray(fn(*grid.mesh()), dtype=float))


# A diffusion coefficient: a positive constant or a positive function of
# position (sampled analytically at face centers).
Coefficient = Union[float, Callable[..., np.ndarray]]


@dataclass(frozen=True)
class DiffusionCoeffs:
    """Per-species diffusion coefficients D_a, D_b, D_c."""

    d_a: Coefficient
    d_b: Coefficient
    d_c: Coefficient

    def __post_init__(self):
        for name, d in zip(("d_a", "d_b", "d_c"), (self.d_a, self.d_b, self.d_c)):
            if isinstance(d, (int, float)) and not d > 0.0:
                raise PositivityError(f"{name} must be positive, got {d}")


@dataclass(frozen=True)
class ModelParams:
    """Reference concentrations and rate constants for A + B <=> C.

    The constructor enforces detailed balance k_plus * a_inf * b_inf ==
    k_minus * c_inf (to 1e-12 relative), which is what makes the logarithmic
    free energy a Lyapunov functional of the reaction.
    """

    a_inf: float
    b_inf: float
    c_inf: float
    k_plus: float = 1.0
    k_minus: float = 1.0

    def __post_init__(self):
        for name in ("a_inf", "b_inf", "c_inf", "k_plus", "k_minus"):
            v = getattr(self, name)
            if not v > 0.0:
                raise PositivityError(f"{name} must be positive, got {v}")
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        lhs = self.k_plus * self.a_inf * self.b_inf
        rhs = self.k_minus * self.c_inf
        if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs)):
            raise ValueError(
                "detailed balance violated: "
                f"k_plus*a_inf*b_inf = {lhs!r} != k_minus*c_inf = {rhs!r}"
            )


class State:
    """Concentrations (a, b, c) at one time level, stacked in one array.

    ``u`` has shape ``(3, *grid.shape)``, rows a, b, c; ``a``, ``b`` and
    ``c`` are Field views of its rows.  ``State(a, b, c, time)`` copies the
    three fields into a new stack; :meth:`from_stack` wraps an existing one.
    """

    def __init__(self, a: Field, b: Field, c: Field, time: float = 0.0):
        if not (a.grid == b.grid == c.grid):
            raise ValueError("a, b, c must share one grid")
        self._wrap(a.grid, np.stack([a.values, b.values, c.values]), time)

    @classmethod
    def from_stack(cls, grid: Grid, u: np.ndarray, time: float = 0.0) -> State:
        """Wrap a float64 array of shape ``(3, *grid.shape)`` without copying it."""
        state = cls.__new__(cls)
        state._wrap(grid, u, time)
        return state

    def _wrap(self, grid: Grid, u: np.ndarray, time: float) -> None:
        if u.dtype != np.float64 or u.shape != (3, *grid.shape):
            raise ValueError(
                f"state array must be float64 of shape {(3, *grid.shape)}, "
                f"got {u.dtype} {u.shape}"
            )
        self.grid = grid
        self.u = u
        self.time = time
        self.a, self.b, self.c = (Field(grid, row) for row in u)

    @classmethod
    def uniform(cls, grid: Grid, a: float, b: float, c: float, time: float = 0.0) -> State:
        u = np.empty((3, *grid.shape))
        for row, value in zip(u, (a, b, c)):
            row[...] = value
        return cls.from_stack(grid, u, time)

    def species(self) -> tuple[tuple[str, Field], ...]:
        return tuple(zip("abc", (self.a, self.b, self.c)))

    def min_values(self) -> tuple[float, float, float]:
        return tuple(float(row.min()) for row in self.u)

    def require_positive(self, context: str = "state") -> None:
        for name, row in zip("abc", self.u):
            m = float(row.min())
            if not m > 0.0:
                cell = int(np.argmin(row.ravel()))
                raise PositivityError(
                    f"{context}: species {name} is non-positive "
                    f"({m!r}) at cell {cell}"
                )


def same_stack(out: np.ndarray, u: np.ndarray, context: str) -> bool:
    """True when ``out`` is ``u``, False when the two share no memory; any
    other overlap is refused."""
    if out is u:
        return True
    if np.may_share_memory(out, u):
        raise ValueError(f"{context}: out must be the input's own stack or share no memory "
                         "with it")
    return False


def inner_product(f: Field, g: Field) -> float:
    """Discrete L2 inner product: h^dim * sum of f*g over all cells."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return float(f.grid.cell_volume * np.sum(f.values * g.values))


def norm_max(f: Field) -> float:
    """Discrete maximum norm, max |f|."""
    return float(np.max(np.abs(f.values)))


def mean_value(f: Field) -> float:
    """<f, 1>: the discrete integral of f over the domain."""
    # A Python float product: an overflow gives inf without a numpy warning.
    return f.grid.cell_volume * float(np.sum(f.values))


def discrete_energy(state: State, params: ModelParams) -> float:
    """Discrete free energy sum_species <x (ln(x / x_inf) - 1), 1>.

    Raises :class:`PositivityError` if any concentration is not strictly
    positive (the logarithms would blow up).
    """
    state.require_positive("discrete_energy")
    refs = (params.a_inf, params.b_inf, params.c_inf)
    total = 0.0
    # One scratch row takes the steps of v * (ln(v / ref) - 1) in turn, in
    # their order, so it gives the bits of the plain expression.
    w = np.empty_like(state.u[0])
    # an overflowing ratio (tiny x_inf) is an infinite energy, which callers refuse
    with np.errstate(over="ignore"):
        for v, ref in zip(state.u, refs):
            np.divide(v, ref, out=w)
            np.log(w, out=w)
            np.subtract(w, 1.0, out=w)
            total += float(np.sum(np.multiply(v, w, out=w)))
    return state.grid.cell_volume * total


def face_coefficient(grid: Grid, d: Coefficient, axis: int) -> Union[float, np.ndarray]:
    """Diffusion coefficient sampled on the faces normal to a physical axis.

    Entry ``[..., i, ...]`` (along the array axis for ``axis``) is the value
    on the face between cell i and cell i+1 (periodic wrap at the end).
    Constants pass through unchanged; callables are evaluated at face
    centers.  Every value must be positive and finite.
    """
    if isinstance(d, (int, float)):
        if not d > 0.0:
            raise PositivityError(f"diffusion coefficient must be positive, got {d}")
        if not math.isfinite(d):
            raise ValueError(f"diffusion coefficient must be finite, got {d}")
        return float(d)
    vals = np.asarray(d(*grid.mesh(face_axis=axis)), dtype=float)
    vals = np.broadcast_to(vals, grid.shape)
    if not np.all(vals > 0.0):
        raise PositivityError(
            f"diffusion coefficient non-positive on a face along axis {axis}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"diffusion coefficient not finite on a face along axis {axis}")
    return vals


# _SHIFTS[ndim][axis]: index tuples for [1:], [:-1], [:1] and [-1:] along the
# array axis of physical axis ``axis`` (array axes run z, y, x).
_SHIFTS = {
    ndim: [[(slice(None),) * (ndim - 1 - axis) + (s,)
            for s in (slice(1, None), slice(None, -1), slice(None, 1), slice(-1, None))]
           for axis in range(ndim)]
    for ndim in (1, 2, 3)
}


def div_grad(v: np.ndarray, faces, h: float, out: Optional[np.ndarray] = None,
             flux: Optional[np.ndarray] = None, tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """The divergence-form operator div(D grad v) with periodic wrap.

    ``faces[axis]`` holds the coefficient on the faces normal to physical
    axis ``axis`` (see :func:`face_coefficient`; a float is a constant) and
    ``h`` is the cell spacing.  Along each axis the face flux between cells
    i and i+1 is ``D_face * (v[i+1] - v[i]) / h``; the cell value is the net
    outflow ``(flux[i] - flux[i-1]) / h``, summed over axes.  The stencil is
    the standard centered second-order one; constants are in its kernel and
    its column sums vanish by telescoping.

    The result goes into ``out``; ``flux`` (and, in 2D and 3D, ``tmp``) are
    scratch arrays of v's shape.  Any of them left as None is allocated; the
    result does not depend on what the buffers held.
    """
    out = np.empty_like(v) if out is None else out
    flux = np.empty_like(v) if flux is None else flux
    if tmp is None and len(faces) > 1:
        tmp = np.empty_like(v)
    for axis, dface in enumerate(faces):
        hi, lo, first, last = _SHIFTS[v.ndim][axis]
        np.subtract(v[hi], v[lo], out=flux[lo])
        np.subtract(v[first], v[last], out=flux[last])
        np.multiply(dface, flux, out=flux)
        np.divide(flux, h, out=flux)
        dest = out if axis == 0 else tmp
        np.subtract(flux[hi], flux[lo], out=dest[hi])
        np.subtract(flux[first], flux[last], out=dest[first])
        np.divide(dest, h, out=dest)
        if axis > 0:
            np.add(out, tmp, out=out)
    return out


def apply_variable_laplacian(f: Field, d: Coefficient) -> Field:
    """Apply div(D grad f) (see :func:`div_grad`) for a coefficient ``d``."""
    grid = f.grid
    faces = [face_coefficient(grid, d, axis) for axis in range(grid.dim)]
    return Field(grid, div_grad(f.values, faces, grid.h))
