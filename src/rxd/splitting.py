"""Time stepping: reaction stage then diffusion stage, once per step.

Each full step applies the implicit reaction-trajectory update with the
whole step size, then the implicit Euler diffusion update with the same
step size (Lie splitting, reaction first).  Both stages dissipate the same
discrete free energy and preserve cellwise positivity, so in checked mode
energy decay is asserted across each stage and each step, and positivity
after every step.

Also provides the standard benchmark initial condition on
(-1, 1)^2 and the diagnostics CSV format.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, TextIO, Union

import numpy as np

from . import diffusion, reaction
from .diffusion import build_operators, step_diffusion
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
from .snapshots import format_float, write_csv

# Slack for the per-stage and per-step energy monotonicity assertions,
# relative to 1 + |F| before the stage or step.
ENERGY_SLACK = 1e-10
# Allowed relative drift of the conserved masses <a+c, 1> and <b+c, 1>.
MASS_DRIFT_TOL = 1e-8


def whole_ratio(num: float, den: float) -> int:
    """num/den rounded if that is a positive integer to within 1e-12 relative, else 0.

    The slack covers the few ulps by which a quotient of rounded inputs misses its integer.
    """
    ratio = num / den if den > 0.0 else 0.0
    whole = round(ratio) if 0.0 < ratio < math.inf else 0
    return whole if abs(ratio - whole) <= 1e-12 * ratio else 0


@dataclass(frozen=True)
class TimeConfig:
    """Fixed-step time axis: t_final must be an integer multiple of dt."""

    dt: float
    t_final: float

    def __post_init__(self):
        for name in ("dt", "t_final"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if 5e8 <= (ratio := self.t_final / self.dt) < math.inf:  # an overflow is not whole
            raise ValueError(f"t_final/dt = {self.t_final!r}/{self.dt!r} = {ratio!r}: the step "
                             "count is too large to check as a whole number (at most 5e8)")
        if not self.steps:
            raise ValueError(
                f"t_final/dt = {self.t_final!r}/{self.dt!r} = {ratio!r} "
                "is not a positive integer; partial final steps are not supported"
            )

    @property
    def steps(self) -> int:
        return whole_ratio(self.t_final, self.dt)


@dataclass(frozen=True)
class SolverOptions:
    """What a config's ``solver`` section and ``--checked`` set for the two stages.

    Tolerances default to the stage modules' ``DEFAULT_TOL``, and
    ``cg_max_iter`` None is 10 times the cell count.  ``checked`` turns on
    per-step checks of positivity, energy dissipation and mass conservation
    (one extra pass per step; disable for production-sized runs).
    """

    reaction_tol: float = reaction.DEFAULT_TOL
    cg_tol: float = diffusion.DEFAULT_TOL
    cg_max_iter: Optional[int] = None
    checked: bool = True

    def __post_init__(self):
        for name in ("reaction_tol", "cg_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.cg_max_iter is not None and self.cg_max_iter < 1:
            raise ValueError(f"cg_max_iter must be at least 1, got {self.cg_max_iter}")


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


_DIAGNOSTICS_FIELDS = tuple(f.name for f in fields(DiagnosticsRow))
DIAGNOSTICS_HEADER = ",".join(_DIAGNOSTICS_FIELDS)


def write_diagnostics_csv(rows, dest: Union[str, os.PathLike, TextIO]) -> None:
    """Integers as written, floats at 17 significant digits, in field order."""
    # getattr per field: dataclasses.astuple would deep-copy every value.
    cells = ([str(v) if isinstance(v, int) else format_float(v)
              for v in (getattr(row, name) for name in _DIAGNOSTICS_FIELDS)]
             for row in rows)
    write_csv(dest, DIAGNOSTICS_HEADER, cells)


def _state_row(state: State, params: ModelParams, reaction_residual: float = 0.0,
               cg_iters: tuple[int, int, int] = (0, 0, 0)) -> DiagnosticsRow:
    a, b, c = state.u
    # Huge concentrations overflow to an infinite mass or energy, which
    # checked mode refuses by name.
    with np.errstate(over="ignore"):
        mass_ac = mean_value(Field(state.grid, a + c))
        mass_bc = mean_value(Field(state.grid, b + c))
        energy = discrete_energy(state, params)
    mins = state.min_values()
    return DiagnosticsRow(
        step=0,
        time=state.time,
        energy=energy,
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


def _check_row(row: DiagnosticsRow, first: DiagnosticsRow) -> None:
    """Checked mode's test of a row: energy and masses finite, masses those of ``first``."""
    for name in ("energy", "mass_ac", "mass_bc"):
        now, ref = getattr(row, name), getattr(first, name)
        if not math.isfinite(now):
            raise AssertionError(f"{name} is not finite at step {row.step}: {now!r}")
        if name != "energy" and abs(now - ref) > MASS_DRIFT_TOL * abs(ref):
            raise AssertionError(f"{name} drifted at step {row.step}: {ref!r} -> {now!r}")


def full_step(
    state: State,
    params: ModelParams,
    ops: tuple,
    options: SolverOptions = SolverOptions(),
    collect: bool = True,
    energy_before: Optional[float] = None,
) -> tuple[State, Optional[DiagnosticsRow]]:
    """One split step: reaction with step dt, then diffusion with step dt.

    ``ops`` are the run's diffusion operators from :func:`build_operators`:
    they hold the coefficients and dt, and their workspace serves both
    stages.  Returns ``state``, advanced, and (when ``collect`` or in
    checked mode) a diagnostics row with ``step`` left at 0 for the caller
    to fill in.  Both stages advance ``state.u`` itself (after an error its
    contents are unspecified), so the step holds no stack besides
    ``state``'s.  ``energy_before`` is the energy of ``state`` if the
    caller has it; checked mode computes it otherwise.
    """
    checked = options.checked
    if checked and energy_before is None:
        energy_before = discrete_energy(state, params)
    star, solve = step_reaction(state, ops[0].dt, params, options.reaction_tol, ops[0].work.rows)
    reaction_residual = solve.max_residual
    del solve  # its per-cell arrays leave the step's peak before the diffusion
    energy_star = discrete_energy(star, params) if checked else None
    next_state, reports = step_diffusion(star, ops, options.cg_tol, options.cg_max_iter)
    row = None
    if collect or checked:
        row = _state_row(next_state, params, reaction_residual,
                         tuple(r.iterations for r in reports))
    if checked:
        for label, before, after in (
            ("reaction stage", energy_before, energy_star),
            ("diffusion stage", energy_star, row.energy),
            ("step", energy_before, row.energy),
        ):
            if after > before + ENERGY_SLACK * (1.0 + abs(before)):
                raise AssertionError(
                    f"energy increased across the {label}: {before!r} -> {after!r}"
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
    on_snapshot: Optional[Callable[[int, State], None]] = None,
) -> tuple[State, list[DiagnosticsRow]]:
    """Run ``tc.steps`` full steps from ``initial``.

    Diagnostics rows are recorded every ``diagnostics_every`` steps (0
    disables recording; the initial state is row 0 and the final step is
    always recorded), and field snapshots are handed to ``on_snapshot``
    every ``snapshot_every`` steps.  In checked mode every row, the initial
    one included, must have a finite energy and finite conserved masses,
    and the masses are verified against the initial values at every step.

    The diffusion operators and their workspace are built once for the
    run, before the first snapshot, so a coefficient they refuse is refused
    before any output.  Every function advances the state it is given, and
    only a state handed to ``on_snapshot`` (``initial`` as step 0) is copied
    before the next step.  Without snapshots the run returns ``initial``
    itself, stamped ``initial.time + tc.steps * tc.dt``.
    """
    initial.require_positive("run_simulation initial state")
    rows: list[DiagnosticsRow] = []
    first = row = None
    if diagnostics_every > 0 or options.checked:
        first = row = _state_row(initial, params)
        if options.checked:
            _check_row(row, first)
        if diagnostics_every > 0:
            rows.append(row)
    ops = build_operators(initial.grid, coeffs, tc.dt)
    snapshots = snapshot_every > 0 and on_snapshot is not None
    if snapshots:
        on_snapshot(0, initial)

    state, held, t0 = initial, snapshots, initial.time
    for k in range(1, tc.steps + 1):
        want_row = diagnostics_every > 0 and (k % diagnostics_every == 0 or k == tc.steps)
        if held:
            state = State.from_stack(state.grid, state.u.copy(), state.time)
        state, row = full_step(state, params, ops, options, collect=want_row,
                               energy_before=None if row is None else row.energy)
        # k * dt rather than a running sum of dt, which drifts by roundoff.
        state.time = t0 + k * tc.dt
        if row is not None:
            row = replace(row, step=k, time=state.time)
            if options.checked:
                _check_row(row, first)
        if want_row:
            rows.append(row)
        held = snapshots and k % snapshot_every == 0
        if held:
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
