"""Convergence-order studies: temporal refinement and spatial Cauchy refinement.

The temporal study runs the scheme at a sequence of step sizes on one grid
and measures max-norm differences against a much finer reference step at
the final time.  The spatial study has no reference: it compares solutions
on consecutive mesh resolutions (interpolating the finer one to the coarse
cell centers) and converts the difference ratios to an order with the
correction factor

    A* = (1 - h_j^2 / h_{j-1}^2) / (1 - h_{j+1}^2 / h_j^2),

which makes a clean two-term h^2 error sequence report exactly order 2
even though consecutive differences, not errors, are measured.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, TextIO, Union

import numpy as np

from .grid import DiffusionCoeffs, Field, Grid, ModelParams, State
from .snapshots import format_float, write_csv
from .splitting import (
    SolverOptions,
    TimeConfig,
    make_initial_condition,
    run_simulation,
)

STUDY_CSV_HEADER = "param,err_a,order_a,err_b,order_b,err_c,order_c"


@dataclass(frozen=True)
class Scene:
    """Everything that defines a simulation apart from resolution and time step."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    params: ModelParams
    coeffs: DiffusionCoeffs
    initial: Callable[[Grid], State]
    options: SolverOptions = SolverOptions(checked=False)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def grid(self, n: int) -> Grid:
        return Grid(self.dim, n, self.lower, self.upper)


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

    def all_orders(self) -> list[float]:
        return [o for row in self.orders for o in row]

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


def convergence_orders(params: Sequence[float], errors: Sequence[float]) -> list[float]:
    """Observed orders ln(e_j / e_{j+1}) / ln(p_j / p_{j+1}) between consecutive rows."""
    if len(params) != len(errors) or len(params) < 2:
        raise ValueError("need at least two (param, error) rows")
    orders = []
    for (p1, e1), (p2, e2) in zip(zip(params, errors), zip(params[1:], errors[1:])):
        if p1 == p2:
            raise ValueError(f"repeated refinement parameter {p1!r}")
        orders.append(math.log(e1 / e2) / math.log(p1 / p2))
    return orders


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
    orders = []
    for j in range(1, len(hs) - 1):
        a_star = cauchy_a_star(hs[j - 1], hs[j], hs[j + 1])
        orders.append(
            math.log(diffs[j - 1] / (a_star * diffs[j])) / math.log(hs[j - 1] / hs[j])
        )
    return orders


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


def _refine(kind: str, runs: list, pairs: list, orders_of: Callable, params: list,
            scene: Scene) -> RefinementReport:
    """Run every (grid, TimeConfig) in order, difference the finals of each (i, j) pair.

    Each pair gives one row of per-species :func:`compare_fields` differences
    (the plain max-norm difference when the grids coincide); ``orders_of``
    turns one species' column of differences into its orders.
    """
    finals = [run_simulation(scene.initial(g), tc, scene.params, scene.coeffs,
                             options=scene.options, diagnostics_every=0)[0] for g, tc in runs]
    errors = [
        tuple(
            compare_fields(f, g)
            for (_, f), (_, g) in zip(finals[i].species(), finals[j].species())
        )
        for i, j in pairs
    ]
    orders = list(zip(*(orders_of([e[s] for e in errors]) for s in range(3))))
    return RefinementReport(kind, params, errors, orders)


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
    runs = [(grid, TimeConfig(dt, t_final)) for dt in (*dts, ref_dt)]
    return _refine(
        "temporal", runs, [(i, len(dts)) for i in range(len(dts))],
        partial(convergence_orders, dts), list(dts), scene,
    )


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
        n = extent / h
        if abs(n - round(n)) > 1e-9 * n:
            raise ValueError(f"h = {h!r} does not tile the domain extent {extent!r}")
        grids.append(scene.grid(int(round(n))))
    runs = [(g, TimeConfig(h * h, t_final)) for g, h in zip(grids, hs)]
    return _refine(
        "spatial", runs, [(j, j + 1) for j in range(len(hs) - 1)],
        partial(cauchy_orders, hs), list(hs[1:]), scene,
    )
