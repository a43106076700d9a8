"""Time stepping: reaction stage then diffusion stage, once per step.

Each full step applies the implicit reaction-trajectory update with the
whole step size, then the implicit Euler diffusion update with the same
step size (Lie splitting, reaction first).  Both stages dissipate the same
discrete free energy and preserve cellwise positivity, so in checked mode
those guarantees are asserted after every step.

Also provides the standard benchmark initial condition on
(-1, 1)^2 and the diagnostics CSV format.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Optional, TextIO, Union

import numpy as np

from .diffusion import step_diffusion
from .grid import (
    DiffusionCoeffs,
    Field,
    Grid,
    ModelParams,
    State,
    discrete_energy,
    mean_value,
)
from .reaction import step_reaction

# Slack for the per-step energy monotonicity assertion, relative to 1 + |F|.
ENERGY_SLACK = 1e-10
# Allowed relative drift of the conserved masses <a+c, 1> and <b+c, 1>.
MASS_DRIFT_TOL = 1e-8

DIAGNOSTICS_HEADER = (
    "step,time,energy,mass_ac,mass_bc,min_a,min_b,min_c,"
    "reaction_residual,cg_iters_a,cg_iters_b,cg_iters_c"
)


@dataclass(frozen=True)
class TimeConfig:
    """Fixed-step time axis: t_final must be an integer multiple of dt."""

    dt: float
    t_final: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_final > 0.0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        ratio = self.t_final / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * ratio or round(ratio) < 1:
            raise ValueError(
                f"t_final/dt = {ratio!r} is not a positive integer; "
                "partial final steps are not supported"
            )

    @property
    def steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and safety switches shared by the two stages.

    ``checked`` turns on per-step verification of positivity, energy
    dissipation and mass conservation (one extra pass per step; disable for
    production-sized runs).
    """

    reaction_tol: float = 1e-12
    reaction_max_iter: int = 100
    cg_tol: float = 1e-10
    cg_max_iter: Optional[int] = None
    checked: bool = True


@dataclass(frozen=True)
class DiagnosticsRow:
    step: int
    time: float
    energy: float
    mass_ac: float
    mass_bc: float
    min_a: float
    min_b: float
    min_c: float
    reaction_residual: float
    cg_iters_a: int
    cg_iters_b: int
    cg_iters_c: int


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def format_diagnostics_row(row: DiagnosticsRow) -> str:
    return ",".join(
        [
            str(row.step),
            _fmt(row.time),
            _fmt(row.energy),
            _fmt(row.mass_ac),
            _fmt(row.mass_bc),
            _fmt(row.min_a),
            _fmt(row.min_b),
            _fmt(row.min_c),
            _fmt(row.reaction_residual),
            str(row.cg_iters_a),
            str(row.cg_iters_b),
            str(row.cg_iters_c),
        ]
    )


def write_diagnostics_csv(rows, dest: Union[str, os.PathLike, TextIO]) -> None:
    if hasattr(dest, "write"):
        dest.write(DIAGNOSTICS_HEADER + "\n")
        for row in rows:
            dest.write(format_diagnostics_row(row) + "\n")
    else:
        with open(dest, "w", encoding="ascii") as fh:
            write_diagnostics_csv(rows, fh)


def _state_row(state: State, params: ModelParams, step: int,
               reaction_residual: float = 0.0,
               cg_iters: tuple[int, int, int] = (0, 0, 0)) -> DiagnosticsRow:
    g = state.grid
    mass_ac = mean_value(Field(g, state.a.values + state.c.values))
    mass_bc = mean_value(Field(g, state.b.values + state.c.values))
    mins = state.min_values()
    return DiagnosticsRow(
        step=step,
        time=state.time,
        energy=discrete_energy(state, params),
        mass_ac=mass_ac,
        mass_bc=mass_bc,
        min_a=mins[0],
        min_b=mins[1],
        min_c=mins[2],
        reaction_residual=reaction_residual,
        cg_iters_a=cg_iters[0],
        cg_iters_b=cg_iters[1],
        cg_iters_c=cg_iters[2],
    )


def full_step(
    state: State,
    dt: float,
    params: ModelParams,
    coeffs: DiffusionCoeffs,
    options: SolverOptions = SolverOptions(),
    collect: bool = True,
) -> tuple[State, Optional[DiagnosticsRow]]:
    """One split step: reaction with step dt, then diffusion with step dt.

    Returns the advanced state and (when ``collect`` or in checked mode) a
    diagnostics row with ``step`` left at 0 for the caller to fill in.
    """
    checked = options.checked
    energy_before = discrete_energy(state, params) if checked else None
    star, reaction = step_reaction(
        state, dt, params, tol=options.reaction_tol, max_iter=options.reaction_max_iter
    )
    next_state, reports = step_diffusion(
        star, coeffs, dt, tol=options.cg_tol, max_iter=options.cg_max_iter
    )
    row = None
    if collect or checked:
        row = _state_row(
            next_state,
            params,
            step=0,
            reaction_residual=reaction.max_residual,
            cg_iters=tuple(r.iterations for r in reports),
        )
    if checked:
        next_state.require_positive("full_step output")
        if row.energy > energy_before + ENERGY_SLACK * (1.0 + abs(energy_before)):
            raise AssertionError(
                f"energy increased across a step: {energy_before!r} -> {row.energy!r}"
            )
    return next_state, row


def run_simulation(
    initial: State,
    tc: TimeConfig,
    params: ModelParams,
    coeffs: DiffusionCoeffs,
    options: SolverOptions = SolverOptions(),
    diagnostics_every: int = 1,
    snapshot_every: int = 0,
    on_row: Optional[Callable[[DiagnosticsRow], None]] = None,
    on_snapshot: Optional[Callable[[int, State], None]] = None,
) -> tuple[State, list[DiagnosticsRow]]:
    """Run ``tc.steps`` full steps from ``initial``.

    Diagnostics rows are recorded every ``diagnostics_every`` steps (0
    disables recording; the initial state is row 0 and the final step is
    always recorded), and field snapshots are handed to ``on_snapshot``
    every ``snapshot_every`` steps.  In checked mode the conserved masses
    are verified against the initial values at every step.
    """
    initial.require_positive("run_simulation initial state")
    rows: list[DiagnosticsRow] = []

    def record(row: DiagnosticsRow) -> None:
        rows.append(row)
        if on_row is not None:
            on_row(row)

    mass_ac0 = mass_bc0 = None
    if diagnostics_every > 0 or options.checked:
        first = _state_row(initial, params, step=0)
        mass_ac0, mass_bc0 = first.mass_ac, first.mass_bc
        if diagnostics_every > 0:
            record(first)
    if snapshot_every > 0 and on_snapshot is not None:
        on_snapshot(0, initial)

    state = initial
    for k in range(1, tc.steps + 1):
        want_row = diagnostics_every > 0 and (k % diagnostics_every == 0 or k == tc.steps)
        state, row = full_step(
            state, tc.dt, params, coeffs, options, collect=want_row
        )
        # k * dt rather than a running sum of dt, which drifts by roundoff.
        state.time = initial.time + k * tc.dt
        if row is not None:
            row = replace(row, step=k, time=state.time)
            if options.checked:
                for label, now, ref in (
                    ("<a+c,1>", row.mass_ac, mass_ac0),
                    ("<b+c,1>", row.mass_bc, mass_bc0),
                ):
                    if abs(now - ref) > MASS_DRIFT_TOL * abs(ref):
                        raise AssertionError(
                            f"conserved mass {label} drifted at step {k}: "
                            f"{ref!r} -> {now!r}"
                        )
        if want_row:
            record(row)
        if snapshot_every > 0 and on_snapshot is not None and k % snapshot_every == 0:
            on_snapshot(k, state)
    return state, rows


def benchmark_initial_functions():
    """The benchmark initial data on (-1, 1)^2, as plain callables.

    a starts as a smoothed disk of radius 0.2 at the origin, b as its
    complement (a + b == 1.02 everywhere), and c as a plateau with two
    shallow dips centered at (0, +-0.2); all three are strictly positive.
    """

    def f_a(x, y):
        return 0.5 * (-np.tanh((np.sqrt(x**2 + y**2) - 0.2) / 0.1) + 1.0) + 0.01

    def f_b(x, y):
        return 0.5 * (np.tanh((np.sqrt(x**2 + y**2) - 0.2) / 0.1) + 1.0) + 0.01

    def f_c(x, y):
        return (
            0.25 * np.tanh((np.sqrt(x**2 + (y - 0.2) ** 2) - 0.2) / 0.1 + 1.0)
            + 0.25 * np.tanh((np.sqrt(x**2 + (y + 0.2) ** 2) - 0.2) / 0.1 + 1.0)
            + 0.01
        )

    return f_a, f_b, f_c


def make_initial_condition(grid: Grid) -> State:
    """Sample the benchmark initial condition at the cell centers of ``grid``.

    The grid must cover (-1, 1)^2.
    """
    if grid.dim != 2 or not grid.same_domain(Grid.box(2, grid.n, -1.0, 1.0)):
        raise ValueError(
            "benchmark initial condition requires a 2D grid on (-1, 1)^2, "
            f"got dim={grid.dim} lower={grid.lower} upper={grid.upper}"
        )
    f_a, f_b, f_c = benchmark_initial_functions()
    state = State(
        Field.from_function(grid, f_a),
        Field.from_function(grid, f_b),
        Field.from_function(grid, f_c),
        time=0.0,
    )
    state.require_positive("initial condition")
    return state
