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
    build_operators,
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


def _copy(state):
    """A state on a new stack: full_step advances the stack it is given."""
    return State.from_stack(state.grid, state.u.copy(), state.time)


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
    assert TimeConfig(1.0, 4e8).steps == 400_000_000
    assert TimeConfig(1.0, 499999999.0).steps == 499_999_999
    # One refusal: a slack of 1e-9 of the ratio dropped the tenths, and from
    # 5e8 on the whole-number check once passed every ratio.
    for dt, t_final in ((1.0, 100000000.1), (1.0, 400000000.4), (1.0, 5e8),
                        (1.0, 500000000.5), (0.1, 1e300)):
        with pytest.raises(ValueError, match="is not a positive integer below 5e8; partial"):
            TimeConfig(dt, t_final)
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
    out, row = full_step(_copy(s), P_UNIT, build_operators(g, COEFFS, 0.1))
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
        full_step(State.uniform(g, 1.0, 1.0, 1.0), P_UNIT, build_operators(g, COEFFS, 0.1))


def test_full_step_uniform_state_reduces_to_reaction():
    # Diffusion is the identity on constants, so the split step equals the
    # pure reaction update with the known quadratic root.
    g = Grid(2, 6, (-1.0, -1.0), (1.0, 1.0))
    coeffs = DiffusionCoeffs(
        lambda x, y: 0.3 + 0.1 * np.cos(np.pi * x), 1.0, 0.1
    )
    s = State.uniform(g, 2.0, 2.0, 1.0)
    out, _ = full_step(s, P_UNIT, build_operators(g, coeffs, 0.1))
    np.testing.assert_allclose(out.a.values, 1.8195395783, atol=1e-9)
    np.testing.assert_allclose(out.b.values, 1.8195395783, atol=1e-9)
    np.testing.assert_allclose(out.c.values, 1.1804604217, atol=1e-9)


def test_full_step_energy_strictly_decreases_on_benchmark():
    g = Grid(2, 32, (-1.0, -1.0), (1.0, 1.0))
    s = make_initial_condition(g)
    before = discrete_energy(s, P_UNIT)
    _, row = full_step(s, P_UNIT, build_operators(g, COEFFS, 0.01))
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
        run_simulation(_copy(s), TimeConfig(0.1, 0.2), P_UNIT, COEFFS)
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
        _copy(s),  # the second run starts from s too
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
    # a nonzero start time is offset, not accumulated; the run reads it before
    # step 1, which advances the time of the state it is given
    start = State.uniform(g, 1.0, 1.0, 1.0, time=1.5)
    final, rows = run_simulation(start, TimeConfig(0.01, 0.2), P_UNIT, COEFFS)
    assert final is start and final.time == 1.5 + 20 * 0.01
    assert [row.time for row in rows] == [1.5 + k * 0.01 for k in range(21)]


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
@pytest.mark.parametrize("t0", [0.0, 1.5])
def test_run_simulation_matches_standalone_steps_bitwise(case, snapshot_every, t0):
    # The run reuses its operators, workspace and the stacks of states
    # on_snapshot was not handed; a loop of standalone steps, each on a copy
    # of the state before it, builds everything anew, with a workspace full
    # of NaN that the stages must write before they read.  The run advances
    # the initial state itself, unless on_snapshot has seen it as step 0,
    # and stamps step k with t0 + k * dt, t0 read before step 1.
    initial, tc, coeffs = _stepper_case(case)
    initial.time = t0
    u0 = initial.u.copy()
    states, rows = [_copy(initial)], []
    for _ in range(tc.steps):
        ops = build_operators(initial.grid, coeffs, tc.dt)
        for view in (ops[0].work.flux, ops[0].work.tmp, ops[0].work.res, ops[0].work.rows):
            view.fill(np.nan)
        state, row = full_step(_copy(states[-1]), P_UNIT, ops)
        states.append(state)
        rows.append(row)
    assert case != "cosine-2d" or all(row.cg_iters_b > 0 for row in rows)
    kept = []
    final, run_rows = run_simulation(initial, tc, P_UNIT, coeffs, snapshot_every=snapshot_every,
                                     on_snapshot=lambda k, state: kept.append((k, state)))
    np.testing.assert_array_equal(_bits(final), _bits(states[-1]))
    assert (final is initial) == (not snapshot_every)
    if snapshot_every:
        np.testing.assert_array_equal(_bits(initial), u0.view(np.uint64))
    assert [k for k, _ in kept] == (list(range(0, tc.steps + 1, snapshot_every))
                                    if snapshot_every else [])
    for k, state in kept:  # no later step overwrote a state on_snapshot was handed
        np.testing.assert_array_equal(_bits(state), _bits(states[k]))
        assert state.time == t0 + k * tc.dt
    assert final.time == t0 + tc.steps * tc.dt
    assert [r.time for r in run_rows] == [t0 + k * tc.dt for k in range(tc.steps + 1)]
    assert [replace(r, step=0, time=0.0) for r in run_rows[1:]] == [
        replace(r, time=0.0) for r in rows]


def _bits(state):
    return state.u.view(np.uint64)


@pytest.mark.parametrize("case", ["constant-2d", "cosine-2d", "tiny-1d", "dt100-3d"])
def test_in_place_stages_match_out_of_place_bitwise(case):
    # Each stage updates the stack of the state it is given: the reaction
    # finds every R before it writes a row, the diffusion solves each species
    # into a scratch row.  Their bits are those of the out-of-place forms,
    # a - R, b - R, c + R and per-species solves into new arrays, and
    # full_step is their composition in the one stack it is given.
    initial, tc, coeffs = _stepper_case(case)
    a, b, c = initial.u
    r, _, _ = reaction._solve_field(a, b, c, tc.dt, P_UNIT, reaction.DEFAULT_TOL,
                                    reaction.DEFAULT_MAX_ITER)
    star_expected = State.from_stack(initial.grid, np.stack([a - r, b - r, c + r]),
                                     initial.time)
    expected = np.stack([diffusion.step_diffusion_species(f, op)[0].values
                         for (_, f), op in zip(star_expected.species(),
                                               build_operators(initial.grid, coeffs, tc.dt))])

    work = _copy(initial)
    star, solve = reaction.step_reaction(work, tc.dt, P_UNIT)
    assert star is work and star.time == initial.time
    np.testing.assert_array_equal(_bits(star), _bits(star_expected))
    np.testing.assert_array_equal(solve.r.values.view(np.uint64), r.view(np.uint64))
    stepped, reports = diffusion.step_diffusion(star, build_operators(initial.grid, coeffs,
                                                                      tc.dt))
    assert stepped is work and stepped.time == initial.time + tc.dt
    np.testing.assert_array_equal(_bits(stepped), expected.view(np.uint64))
    assert case != "cosine-2d" or reports[1].iterations > 0

    work = _copy(initial)
    stepped, row = full_step(work, P_UNIT, build_operators(initial.grid, coeffs, tc.dt))
    assert stepped is work
    np.testing.assert_array_equal(_bits(stepped), expected.view(np.uint64))
    assert (row.cg_iters_a, row.cg_iters_b, row.cg_iters_c) == tuple(
        rep.iterations for rep in reports)


def test_checked_run_computes_energy_twice_per_step(monkeypatch):
    # The energy before a step is the previous row's, computed on the same
    # array; only the initial row and a standalone step compute it anew.
    calls = []
    energy = splitting.discrete_energy
    monkeypatch.setattr(splitting, "discrete_energy",
                        lambda *args: calls.append(1) or energy(*args))
    s = make_initial_condition(Grid.box(2, 8, -1.0, 1.0))
    run_simulation(_copy(s), TimeConfig(0.01, 0.04), P_UNIT, COEFFS, diagnostics_every=0)
    assert len(calls) == 1 + 2 * 4
    calls.clear()
    full_step(s, P_UNIT, build_operators(s.grid, COEFFS, 0.01))
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
