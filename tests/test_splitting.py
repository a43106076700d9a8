"""Full-step driver: fixed points, invariants, diagnostics, determinism."""

import io

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


def test_full_step_equilibrium_fixed_point():
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    s = State.uniform(g, 1.0, 1.0, 1.0)
    out, row = full_step(s, 0.1, P_UNIT, COEFFS)
    for f_in, f_out in zip((s.a, s.b, s.c), (out.a, out.b, out.c)):
        assert np.max(np.abs(f_out.values - f_in.values)) <= 1e-12
    assert row.energy == pytest.approx(-12.0, rel=1e-14)
    assert out.time == pytest.approx(0.1)


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


def test_run_simulation_cadence_and_sinks():
    g = Grid(2, 8, (-1.0, -1.0), (1.0, 1.0))
    s = make_initial_condition(g)
    seen_rows = []
    seen_snaps = []
    _, rows = run_simulation(
        s,
        TimeConfig(0.01, 0.2),
        P_UNIT,
        COEFFS,
        diagnostics_every=5,
        snapshot_every=10,
        on_row=seen_rows.append,
        on_snapshot=lambda step, state: seen_snaps.append(step),
    )
    assert [row.step for row in rows] == [0, 5, 10, 15, 20]
    assert seen_rows == rows
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
