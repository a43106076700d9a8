"""Full-step driver: fixed points, invariants, diagnostics, determinism."""

import io
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from rxd import (
    DiffusionCoeffs,
    Grid,
    ModelParams,
    SolverOptions,
    State,
    TimeConfig,
    discrete_energy,
    full_step,
    make_initial_condition,
    benchmark_initial_functions,
    run_simulation,
    write_diagnostics_csv,
)
from rxd import diffusion, reaction, splitting
from rxd.cli import default_config
from rxd.splitting import DIAGNOSTICS_HEADER

P_UNIT = ModelParams(1.0, 1.0, 1.0)
COEFFS = DiffusionCoeffs(0.05, 1.0, 0.1)


def test_time_config():
    tc = TimeConfig(0.01, 0.2)
    assert tc.steps == 20
    assert TimeConfig(1.0 / 3.0, 2.0).steps == 6
    with pytest.raises(ValueError):
        TimeConfig(0.013, 0.2)  # not an integer number of steps
    with pytest.raises(ValueError):
        TimeConfig(-0.01, 0.2)
    with pytest.raises(ValueError):
        TimeConfig(0.01, 0.0)
    with pytest.raises(ValueError):
        TimeConfig(0.4, 0.2)  # zero steps
    for dt, t_final in ((0.01, np.inf), (np.inf, 0.2), (np.nan, 0.2), (0.01, np.nan)):
        with pytest.raises(ValueError):
            TimeConfig(dt, t_final)


def test_solver_options_validate_their_fields():
    SolverOptions(reaction_tol=1e-14, cg_tol=1e-3, cg_max_iter=1)
    for bad in (
        {"reaction_tol": -1.0},
        {"reaction_tol": 0.0},
        {"reaction_tol": np.inf},
        {"cg_tol": np.nan},  # made the CG loop exit at once, reported as converged
        {"cg_tol": 0.0},
        {"cg_max_iter": 0},
        {"cg_max_iter": -3},
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverOptions(**bad)


def test_solver_defaults_have_one_home():
    # The stage modules hold the only literals; SolverOptions and the config
    # table take them by name, and SolverOptions holds exactly what a config
    # and --checked can set.
    solver = default_config()["solver"]
    assert [f.name for f in fields(SolverOptions)] == [*solver, "checked"]
    assert solver == {k: v for k, v in asdict(SolverOptions()).items() if k != "checked"}
    assert solver["reaction_tol"] == reaction.DEFAULT_TOL
    assert solver["cg_tol"] == diffusion.DEFAULT_TOL
    assert solver["cg_max_iter"] is None


def test_full_step_equilibrium_fixed_point():
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    s = State.uniform(g, 1.0, 1.0, 1.0)
    out, row = full_step(s, 0.1, P_UNIT, COEFFS)
    for f_in, f_out in zip((s.a, s.b, s.c), (out.a, out.b, out.c)):
        assert np.max(np.abs(f_out.values - f_in.values)) <= 1e-12
    assert row.energy == pytest.approx(-12.0, rel=1e-14)
    assert out.time == pytest.approx(0.1)


@pytest.mark.parametrize(
    "stage,label", [("step_reaction", "reaction stage"), ("step_diffusion", "diffusion stage")]
)
def test_checked_step_names_the_stage_that_raised_energy(monkeypatch, stage, label):
    # Doubling every concentration of the equilibrium state raises its
    # energy from -1 to 2 (ln 2 - 1) per species and unit area.
    real = getattr(splitting, stage)

    def heating(state, *args, **kwargs):
        out, report = real(state, *args, **kwargs)
        return State.from_stack(out.grid, 2.0 * out.u, out.time), report

    monkeypatch.setattr(splitting, stage, heating)
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(AssertionError, match=f"energy increased across the {label}"):
        full_step(State.uniform(g, 1.0, 1.0, 1.0), 0.1, P_UNIT, COEFFS)


def test_full_step_uniform_state_reduces_to_reaction():
    # Diffusion is the identity on constants, so the split step equals the
    # pure reaction update with the known quadratic root.
    g = Grid(2, 6, (-1.0, -1.0), (1.0, 1.0))
    coeffs = DiffusionCoeffs(
        lambda x, y: 0.3 + 0.1 * np.cos(np.pi * x), 1.0, 0.1
    )
    s = State.uniform(g, 2.0, 2.0, 1.0)
    out, _ = full_step(s, 0.1, P_UNIT, coeffs)
    np.testing.assert_allclose(out.a.values, 1.8195395783, atol=1e-9)
    np.testing.assert_allclose(out.b.values, 1.8195395783, atol=1e-9)
    np.testing.assert_allclose(out.c.values, 1.1804604217, atol=1e-9)


def test_full_step_energy_strictly_decreases_on_benchmark():
    g = Grid(2, 32, (-1.0, -1.0), (1.0, 1.0))
    s = make_initial_condition(g)
    before = discrete_energy(s, P_UNIT)
    _, row = full_step(s, 0.01, P_UNIT, COEFFS)
    assert row.energy < before


def test_initial_condition_values():
    f_a, f_b, f_c = benchmark_initial_functions()
    assert f_a(0.0, 0.0) == pytest.approx(0.9920137900379085, rel=1e-12)
    assert f_b(0.0, 0.0) == pytest.approx(0.02798620996209155, rel=1e-12)
    g = Grid(2, 64, (-1.0, -1.0), (1.0, 1.0))
    s = make_initial_condition(g)
    np.testing.assert_allclose(s.a.values + s.b.values, 1.02, rtol=1e-15)
    assert min(s.min_values()) > 0.0


def test_initial_condition_rejects_wrong_domain():
    with pytest.raises(ValueError):
        make_initial_condition(Grid.box(2, 16, 0.0, 1.0))
    with pytest.raises(ValueError):
        make_initial_condition(Grid.box(1, 16, -1.0, 1.0))


def test_run_simulation_equilibrium_rows_identical():
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    s = State.uniform(g, 1.0, 1.0, 1.0)
    _, rows = run_simulation(s, TimeConfig(0.1, 1.0), P_UNIT, COEFFS)
    assert len(rows) == 11
    assert len({row.energy for row in rows}) == 1
    assert [row.step for row in rows] == list(range(11))


def test_run_simulation_monotone_energy_constant_mass():
    g = Grid(2, 32, (-1.0, -1.0), (1.0, 1.0))
    s = make_initial_condition(g)
    final, rows = run_simulation(s, TimeConfig(0.01, 0.2), P_UNIT, COEFFS)
    assert len(rows) == 21
    energies = [row.energy for row in rows]
    for e0, e1 in zip(energies, energies[1:]):
        assert e1 <= e0 + 1e-10 * (1.0 + abs(e0))
    for row in rows:
        assert abs(row.mass_ac - rows[0].mass_ac) <= 1e-8 * abs(rows[0].mass_ac)
        assert abs(row.mass_bc - rows[0].mass_bc) <= 1e-8 * abs(rows[0].mass_bc)
        assert min(row.min_a, row.min_b, row.min_c) > 0.0
    assert final.time == pytest.approx(0.2, rel=1e-12)
    # regression snapshot of this exact run (values frozen from the first
    # build; CG tolerance leaves ~1e-10 relative headroom)
    assert rows[0].energy == pytest.approx(-7.7740247461339305, rel=1e-13)
    assert rows[-1].energy == pytest.approx(-8.582947512813686, rel=1e-9)
    assert rows[0].mass_ac == pytest.approx(2.176040101297919, rel=1e-13)
    assert rows[0].mass_bc == pytest.approx(5.873619260292514, rel=1e-13)
    assert rows[-1].min_c == pytest.approx(0.3828370343822782, rel=1e-9)


def test_checked_run_refuses_a_non_finite_conserved_mass():
    # At a = b = c = e the energy density x (ln x - 1) is 0, so only the
    # masses overflow on this huge (finite) cell volume.
    g = Grid(2, 8, (-1e154, -1e154), (1e154, 1e154))
    s = State.uniform(g, np.e, np.e, np.e)
    with pytest.raises(AssertionError, match=r"^mass_ac is not finite at step 0: inf$"):
        run_simulation(s, TimeConfig(0.1, 0.2), P_UNIT, COEFFS)
    _, rows = run_simulation(s, TimeConfig(0.1, 0.2), P_UNIT, COEFFS,
                             SolverOptions(checked=False))
    assert rows[0].energy == 0.0 and rows[-1].mass_ac == np.inf


def test_checked_run_names_the_mass_that_drifted(monkeypatch):
    # Below c_inf, raising c by 1% lowers the energy: the mass check catches it.
    solve = splitting.step_diffusion

    def more_c(*args, **kwargs):
        state, reports = solve(*args, **kwargs)
        state.c.values *= 1.01
        return state, reports

    monkeypatch.setattr(splitting, "step_diffusion", more_c)
    s = State.uniform(Grid(2, 8, (-1.0, -1.0), (1.0, 1.0)), 1.0, 1.0, 0.5)
    with pytest.raises(AssertionError, match=r"^mass_ac drifted at step 1: 6\.0 -> "):
        run_simulation(s, TimeConfig(0.1, 0.2), P_UNIT, COEFFS)


def test_run_simulation_cadence_and_sinks():
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    s = make_initial_condition(g)
    seen_snaps = []
    _, rows = run_simulation(
        s,
        TimeConfig(0.01, 0.2),
        P_UNIT,
        COEFFS,
        diagnostics_every=5,
        snapshot_every=10,
        on_snapshot=lambda step, state: seen_snaps.append(step),
    )
    assert [row.step for row in rows] == [0, 5, 10, 15, 20]
    assert seen_snaps == [0, 10, 20]
    # diagnostics off entirely
    _, no_rows = run_simulation(
        s, TimeConfig(0.1, 0.2), P_UNIT, COEFFS,
        options=SolverOptions(checked=False), diagnostics_every=0,
    )
    assert no_rows == []


def test_run_simulation_time_is_step_count_times_dt():
    # A running sum of dt ends 20 steps of 0.01 at 0.20000000000000004.
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    final, rows = run_simulation(
        make_initial_condition(g), TimeConfig(0.01, 0.2), P_UNIT, COEFFS
    )
    assert final.time == 0.2
    assert [row.time for row in rows] == [k * 0.01 for k in range(21)]
    # a nonzero start time is offset, not accumulated
    start = State.uniform(g, 1.0, 1.0, 1.0, time=1.5)
    final, _ = run_simulation(start, TimeConfig(0.01, 0.2), P_UNIT, COEFFS)
    assert final.time == 1.5 + 20 * 0.01


def test_run_simulation_is_deterministic():
    g = Grid(2, 16, (-1.0, -1.0), (1.0, 1.0))
    tables = []
    for _ in range(2):
        s = make_initial_condition(g)
        _, rows = run_simulation(s, TimeConfig(0.02, 0.1), P_UNIT, COEFFS)
        buf = io.StringIO()
        write_diagnostics_csv(rows, buf)
        tables.append(buf.getvalue())
    assert tables[0] == tables[1]


def _cosine(x, *rest):
    return 1.0 + 0.9 * np.cos(np.pi * x)


def _stepper_case(name):
    """(initial state, time axis, coefficients) of one stepper-equivalence case."""
    if name == "constant-2d":
        return (make_initial_condition(Grid.box(2, 16, -1.0, 1.0)), TimeConfig(0.01, 0.06),
                COEFFS)
    if name == "cosine-2d":
        return (make_initial_condition(Grid.box(2, 16, -1.0, 1.0)), TimeConfig(0.01, 0.06),
                DiffusionCoeffs(0.05, _cosine, 0.1))
    dim, n, dt = {"tiny-1d": (1, 32, 0.05), "dt100-3d": (3, 6, 100.0)}[name]
    g = Grid.box(dim, n, -1.0, 1.0)
    rng = np.random.default_rng(dim)
    u = rng.uniform(0.2, 1.2, (3, *g.shape))
    if name == "tiny-1d":
        u[:, rng.uniform(size=g.shape) < 0.5] = 1e-12
    return State.from_stack(g, u), TimeConfig(dt, 6 * dt), DiffusionCoeffs(_cosine, 0.3, _cosine)


@pytest.mark.parametrize("case", ["constant-2d", "cosine-2d", "tiny-1d", "dt100-3d"])
@pytest.mark.parametrize("snapshot_every", [0, 2])
def test_run_simulation_matches_standalone_steps_bitwise(case, snapshot_every):
    # The run reuses its operators, workspace and the stacks of states no
    # caller holds; a loop of standalone steps builds everything anew.
    initial, tc, coeffs = _stepper_case(case)
    u0 = initial.u.copy()
    states, rows = [initial], []
    for _ in range(tc.steps):
        state, row = full_step(states[-1], tc.dt, P_UNIT, coeffs)
        states.append(state)
        rows.append(row)
    assert case != "cosine-2d" or all(row.cg_iters_b > 0 for row in rows)
    kept = []
    final, run_rows = run_simulation(initial, tc, P_UNIT, coeffs, snapshot_every=snapshot_every,
                                     on_snapshot=lambda k, state: kept.append((k, state)))
    np.testing.assert_array_equal(initial.u, u0)
    np.testing.assert_array_equal(final.u, states[-1].u)
    assert [k for k, _ in kept] == (list(range(0, tc.steps + 1, snapshot_every))
                                    if snapshot_every else [])
    for k, state in kept:
        np.testing.assert_array_equal(state.u, states[k].u)
    assert [replace(r, step=0, time=0.0) for r in run_rows[1:]] == [
        replace(r, time=0.0) for r in rows]


def _bits(state):
    return state.u.view(np.uint64)


@pytest.mark.parametrize("case", ["constant-2d", "cosine-2d", "tiny-1d", "dt100-3d"])
def test_in_place_stages_match_out_of_place_bitwise(case):
    # By default each stage writes a new stack and leaves its input's bits
    # alone.  With in_place it updates its input's own stack: the reaction
    # finds every R before it writes a row, the diffusion solves each species
    # into a scratch row.  full_step is the out-of-place composition, in one
    # stack.
    initial, tc, coeffs = _stepper_case(case)
    u0 = _bits(initial).copy()
    star, solve = reaction.step_reaction(initial, tc.dt, P_UNIT)
    np.testing.assert_array_equal(_bits(initial), u0)
    star_bits = _bits(star).copy()
    expected, reports = diffusion.step_diffusion(star, coeffs, tc.dt)
    np.testing.assert_array_equal(_bits(star), star_bits)
    assert case != "cosine-2d" or reports[1].iterations > 0

    work = State.from_stack(initial.grid, initial.u.copy(), initial.time)
    star_in, solve_in = reaction.step_reaction(work, tc.dt, P_UNIT, in_place=True)
    assert star_in.u is work.u
    np.testing.assert_array_equal(_bits(star_in), star_bits)
    np.testing.assert_array_equal(solve_in.r.values.view(np.uint64),
                                  solve.r.values.view(np.uint64))
    next_in, reports_in = diffusion.step_diffusion(star_in, coeffs, tc.dt, in_place=True)
    assert next_in.u is work.u and reports_in == reports
    np.testing.assert_array_equal(_bits(next_in), _bits(expected))

    stepped, row = full_step(initial, tc.dt, P_UNIT, coeffs)
    np.testing.assert_array_equal(_bits(initial), u0)
    np.testing.assert_array_equal(_bits(stepped), _bits(expected))
    work = State.from_stack(initial.grid, initial.u.copy(), initial.time)
    stepped_in, row_in = full_step(work, tc.dt, P_UNIT, coeffs, in_place=True)
    assert stepped_in.u is work.u and row_in == row
    np.testing.assert_array_equal(_bits(stepped_in), _bits(expected))


def test_checked_run_computes_energy_twice_per_step(monkeypatch):
    # The energy before a step is the previous row's, computed on the same
    # array; only the initial row and a standalone step compute it anew.
    calls = []
    energy = splitting.discrete_energy
    monkeypatch.setattr(splitting, "discrete_energy",
                        lambda *args: calls.append(1) or energy(*args))
    s = make_initial_condition(Grid.box(2, 8, -1.0, 1.0))
    run_simulation(s, TimeConfig(0.01, 0.04), P_UNIT, COEFFS, diagnostics_every=0)
    assert len(calls) == 1 + 2 * 4
    calls.clear()
    full_step(s, 0.01, P_UNIT, COEFFS)
    assert len(calls) == 3


def test_diagnostics_csv_format():
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    s = State.uniform(g, 1.0, 1.0, 1.0)
    _, rows = run_simulation(s, TimeConfig(0.1, 0.2), P_UNIT, COEFFS)
    buf = io.StringIO()
    write_diagnostics_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == rows[0].energy
