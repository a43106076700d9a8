"""Convergence-order studies: temporal refinement and spatial Cauchy refinement.

The temporal study runs a much finer reference step first, then each step
size on the same grid, and measures each final state's max-norm difference
from the reference's.  The spatial study has no reference: it compares each
mesh's solution with the previous, coarser one's, interpolating the finer
to the coarse cell centers.  Neither holds more than one earlier final
state beside a run.  Difference ratios become orders with the correction
factor

    A* = (1 - h_j^2 / h_{j-1}^2) / (1 - h_{j+1}^2 / h_j^2),

which makes a clean two-term h^2 error sequence report exactly order 2
even though consecutive differences, not errors, are measured.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO, Union

import numpy as np

from .diffusion import build_operators
from .grid import DiffusionCoeffs, Field, Grid, ModelParams, State
from .snapshots import format_float, write_csv
from .splitting import (
    SolverOptions,
    TimeConfig,
    make_initial_condition,
    run_simulation,
    whole_ratio,
)

STUDY_CSV_HEADER = "param,err_a,order_a,err_b,order_b,err_c,order_c"

# A run's peak in float64 field sizes, one bound for every kind: tracemalloc
# on checked runs with a snapshot every step and on temporal studies,
# initial state included, gives 12.0 in 2D and 3D with constant D and 14.6
# in 1D at 262,144 cells, where a constant D iterates CG; with a cosine D,
# whose CG allocates z, p and A p, 15.1 (2D, N = 512), 15.6 (1D) and
# 16.1-16.4 (3D, N = 64 and 40).
RUN_PEAK_FIELDS = 17


@dataclass(frozen=True)
class Scene:
    """Everything that defines a simulation apart from resolution and time step."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    params: ModelParams
    coeffs: DiffusionCoeffs
    initial: Callable[[Grid], State]  # a new state per call: a study's runs consume it
    options: SolverOptions = SolverOptions(checked=False)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def grid(self, n: int) -> Grid:
        """The scene's grid of n cells a side; refused if a run on it cannot fit in memory."""
        grid = Grid(self.dim, n, self.lower, self.upper)
        try:
            page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):  # not reported here: no check
            page = pages = 0
        need = RUN_PEAK_FIELDS * 8 * grid.num_cells
        if page > 0 and pages > 0 and need > page * pages:
            raise MemoryError(f"a run on {grid.num_cells} cells peaks near {need / 2**30:.3g} "
                              f"GiB, more than the host's {page * pages / 2**30:.3g} GiB")
        return grid


def benchmark_scene() -> Scene:
    """The benchmark scene: disk/complement/dips initial data on (-1,1)^2, D = (0.05, 1, 0.1)."""
    return Scene(
        lower=(-1.0, -1.0),
        upper=(1.0, 1.0),
        params=ModelParams(1.0, 1.0, 1.0),
        coeffs=DiffusionCoeffs(0.05, 1.0, 0.1),
        initial=make_initial_condition,
    )


@dataclass
class RefinementReport:
    """Rows of (refinement parameter, per-species errors) plus derived orders.

    ``params`` decrease monotonically; ``orders[j]`` relates rows j and j+1
    (temporal) or the Cauchy triple ending at row j+1 (spatial), so it has
    one entry fewer than ``errors``.
    """

    kind: str
    params: list[float]
    errors: list[tuple[float, float, float]]
    orders: list[tuple[float, float, float]]

    def __post_init__(self):
        if any(p2 >= p1 for p1, p2 in zip(self.params, self.params[1:])):
            raise ValueError(f"refinement parameters must decrease: {self.params}")
        if any(e <= 0.0 for row in self.errors for e in row):
            raise ValueError("errors must be positive")

    def _rows(self):
        """(param, errors, orders) per row; orders start on the second row."""
        return zip(self.params, self.errors, [None, *self.orders])

    def write_csv(self, dest: Union[str, os.PathLike, TextIO]) -> None:
        rows = []
        for p, errs, orders in self._rows():
            cells = [format_float(p)]
            for i, e in enumerate(errs):
                cells += [format_float(e), format_float(orders[i]) if orders else ""]
            rows.append(cells)
        write_csv(dest, STUDY_CSV_HEADER, rows)

    def format_table(self) -> str:
        label = {"temporal": "dt", "spatial": "h"}.get(self.kind, "param")
        lines = [
            f"{label:>12}  {'err_a':>12} {'order_a':>8}  {'err_b':>12} "
            f"{'order_b':>8}  {'err_c':>12} {'order_c':>8}"
        ]
        for p, errs, orders in self._rows():
            cols = [f"{p:>12.6g}"]
            for i, e in enumerate(errs):
                cols.append(f"{e:>12.4e} " + (f"{orders[i]:>8.4f}" if orders else f"{'-':>8}"))
            lines.append("  ".join(cols))
        return "\n".join(lines)


def _orders(params: Sequence[float], errors: Sequence[float],
            factors: Iterable[float]) -> list[float]:
    """ln(e_j / (f_j e_{j+1})) / ln(p_j / p_{j+1}) between consecutive rows.

    ``factors`` is read only once the rows are checked, so it may be lazy.
    """
    for p1, p2 in zip(params, params[1:]):
        if p1 == p2:
            raise ValueError(f"repeated refinement parameter {p1!r}")
    if not all(e > 0.0 for e in errors):
        raise ValueError(f"the differences {list(errors)} must all be positive to give an "
                         "order (identical runs make them vanish)")
    return [math.log(e1 / (f * e2)) / math.log(p1 / p2)
            for p1, p2, e1, e2, f in zip(params, params[1:], errors, errors[1:], factors)]


def convergence_orders(params: Sequence[float], errors: Sequence[float]) -> list[float]:
    """Observed orders ln(e_j / e_{j+1}) / ln(p_j / p_{j+1}) between consecutive rows."""
    if len(params) != len(errors) or len(params) < 2:
        raise ValueError("need at least two (param, error) rows")
    return _orders(params, errors, [1.0] * (len(params) - 1))


def cauchy_a_star(h_coarse: float, h_mid: float, h_fine: float) -> float:
    """Correction factor for orders from consecutive-resolution differences."""
    return (1.0 - h_mid**2 / h_coarse**2) / (1.0 - h_fine**2 / h_mid**2)


def cauchy_orders(hs: Sequence[float], diffs: Sequence[float]) -> list[float]:
    """Orders from consecutive differences d_j = ||u_{h_{j-1}} - u_{h_j}||.

    ``diffs[j-1]`` is the difference between resolutions j-1 and j; each
    consecutive triple of resolutions yields one order.
    """
    if len(hs) < 3:
        raise ValueError("need at least three resolutions for a Cauchy order")
    if len(diffs) != len(hs) - 1:
        raise ValueError(f"expected {len(hs) - 1} differences, got {len(diffs)}")
    return _orders(hs, diffs, (cauchy_a_star(*hs[j:j + 3]) for j in range(len(hs) - 2)))


def compare_fields(coarse: Field, fine: Field) -> float:
    """Max-norm difference at coarse cell centers, interpolating the fine field.

    The fine field is sampled at every coarse cell center by tensor-product
    piecewise-cubic Lagrange interpolation between the surrounding fine cell
    centers, with periodic wrap.  Cell centers of different uniform
    resolutions never coincide, so some interpolation is unavoidable; the
    cubic stencil keeps its error at O(h^4) so that the O(h^2) differences
    being measured are not polluted by the comparison itself (linear
    interpolation error scales like the measured quantity and visibly
    corrupts the observed orders on steep fronts).  Exact on fields that are
    polynomial up to cubic in each coordinate, and the identity when the
    grids coincide.
    """
    if not coarse.grid.same_domain(fine.grid):
        raise ValueError(
            f"fields cover different domains: {coarse.grid} vs {fine.grid}"
        )
    if coarse.grid == fine.grid:
        return float(np.max(np.abs(coarse.values - fine.values)))
    vals = fine.values
    fg, cg = fine.grid, coarse.grid
    for p in range(fg.dim):
        array_axis = fg.dim - 1 - p
        u = (cg.centers(p) - fg.lower[p]) / fg.h - 0.5
        i0 = np.floor(u).astype(int)
        w = u - i0
        # Lagrange weights for offsets (-1, 1, 2); the offset-0 weight is
        # implied by the sum-to-one identity, and accumulating differences
        # against v0 keeps constants exact in floating point.
        weights = (
            -w * (w - 1.0) * (w - 2.0) / 6.0,
            -(w + 1.0) * w * (w - 2.0) / 2.0,
            (w + 1.0) * w * (w - 1.0) / 6.0,
        )
        shape = [1] * vals.ndim
        shape[array_axis] = len(u)
        v0 = np.take(vals, i0 % fg.n, axis=array_axis)
        acc = v0.copy()
        for offset, wt in zip((-1, 1, 2), weights):
            v_off = np.take(vals, (i0 + offset) % fg.n, axis=array_axis)
            acc += wt.reshape(shape) * (v_off - v0)
        vals = acc
    return float(np.max(np.abs(coarse.values - vals)))


def _final(initial: State, tc: TimeConfig, scene: Scene) -> State:
    return run_simulation(initial, tc, scene.params, scene.coeffs, options=scene.options,
                          diagnostics_every=0)[0]


def _differences(coarse: State, fine: State) -> tuple[float, float, float]:
    return tuple(compare_fields(f, g) for (_, f), (_, g) in zip(coarse.species(), fine.species()))


def temporal_order(
    dts: Sequence[float],
    ref_dt: float,
    grid: Grid,
    t_final: float,
    scene: Scene,
) -> RefinementReport:
    """Errors and orders against a fine-step reference run on the same grid.

    Every step size (including ``ref_dt``, which must be smaller than all of
    them) must divide ``t_final``; errors are max-norm differences per
    species at the final time.
    """
    dts = sorted((float(dt) for dt in dts), reverse=True)
    if len(dts) < 2:
        raise ValueError("temporal study needs at least two step sizes")
    if len(set(dts)) != len(dts):
        raise ValueError(f"repeated step sizes in {dts}")
    if not ref_dt < min(dts):
        raise ValueError(f"reference dt {ref_dt!r} must be below min(dts) = {min(dts)!r}")
    *tcs, ref_tc = [TimeConfig(dt, t_final) for dt in (*dts, ref_dt)]
    initial = scene.initial(grid)
    # The largest dt overflows the preconditioner first: refuse it before the reference runs.
    build_operators(grid, scene.coeffs, dts[0])
    ref = _final(initial, ref_tc, scene)
    errors = [_differences(_final(scene.initial(grid), tc, scene), ref) for tc in tcs]
    orders = zip(*(convergence_orders(dts, col) for col in zip(*errors)))
    return RefinementReport("temporal", dts, errors, list(orders))


def spatial_cauchy_order(
    hs: Sequence[float],
    t_final: float,
    scene: Scene,
) -> RefinementReport:
    """Cauchy refinement study over decreasing mesh sizes, with dt = h^2.

    The scheme's error is O(dt + h^2), so the time error stays of the order of
    the spatial one.  Consecutive solutions are compared at the coarser grid's
    cell centers; rows carry the finer h of each pair and the A*-adjusted orders.
    """
    hs = sorted((float(h) for h in hs), reverse=True)
    if len(hs) < 3:
        raise ValueError("spatial Cauchy study needs at least three mesh sizes")
    if len(set(hs)) != len(hs):
        raise ValueError(f"repeated mesh sizes in {hs}")
    extent = scene.upper[0] - scene.lower[0]
    grids = []
    for h in hs:
        n = whole_ratio(extent, h)
        if not n:
            raise ValueError(f"h = {h!r} does not tile the domain extent {extent!r} in a whole "
                             "number of cells, or only in too many to allocate")
        grids.append(scene.grid(n))
    tcs = [TimeConfig(h * h, t_final) for h in hs]
    finals = (_final(scene.initial(g), tc, scene) for g, tc in zip(grids, tcs))
    errors, coarse = [], next(finals)
    for fine in finals:  # the older final is dropped once compared
        errors.append(_differences(coarse, fine))
        coarse = fine
    orders = zip(*(cauchy_orders(hs, col) for col in zip(*errors)))
    return RefinementReport("spatial", hs[1:], errors, list(orders))
