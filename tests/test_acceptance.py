"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The full-resolution table reproduction is marked ``long`` and excluded from
the default run; execute it with ``pytest -m long``.
"""

import io

import numpy as np
import pytest

from rxd import (
    DiffusionCoeffs,
    Field,
    Grid,
    ModelParams,
    SolverOptions,
    State,
    TimeConfig,
    apply_variable_laplacian,
    build_operators,
    full_step,
    inner_product,
    make_initial_condition,
    mean_value,
    norm_max,
    benchmark_scene,
    run_simulation,
    solve_reaction_cell,
    spatial_cauchy_order,
    step_diffusion_species,
    step_reaction,
    temporal_order,
    write_diagnostics_csv,
)
from rxd.reaction import DEFAULT_MAX_ITER, DEFAULT_TOL, _solve_field
from oracles import bisect_reaction, rk4_reaction

P_UNIT = ModelParams(1.0, 1.0, 1.0)
COEFFS = DiffusionCoeffs(0.05, 1.0, 0.1)


def check(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def energy_run():
    """Benchmark scene, N=64, dt=0.01, T=2: shared by criteria 4, 5, 6."""
    grid = Grid(2, 64, (-1.0, -1.0), (1.0, 1.0))
    initial = make_initial_condition(grid)
    final, rows = run_simulation(
        initial,
        TimeConfig(0.01, 2.0),
        P_UNIT,
        COEFFS,
        options=SolverOptions(checked=False),
        diagnostics_every=1,
    )
    return rows


def test_criterion_1_temporal_convergence():
    scene = benchmark_scene()
    grid = scene.grid(100)
    report = temporal_order(
        [1.0 / 25, 1.0 / 50, 1.0 / 100, 1.0 / 200], 1.0 / 800, grid, 0.2, scene
    )
    orders = [o for row in report.orders for o in row]
    check(
        "1 temporal orders in [0.85, 1.35]",
        all(0.85 <= o <= 1.35 for o in orders),
        "orders " + ", ".join(f"{o:.4f}" for o in orders),
    )


def test_criterion_2_spatial_convergence():
    scene = benchmark_scene()
    report = spatial_cauchy_order(
        [1.0 / 20, 1.0 / 30, 1.0 / 40, 1.0 / 50, 1.0 / 60], 0.2, scene
    )
    orders = [o for row in report.orders for o in row]
    check(
        "2 spatial A*-adjusted orders in [1.90, 2.10]",
        all(1.90 <= o <= 2.10 for o in orders),
        "orders " + ", ".join(f"{o:.4f}" for o in orders),
    )


# Reference max-norm errors and orders at h = 1/200, reference dt = 1/1600.
FULL_RES_TABLE = {
    1.0 / 25: ((9.5498e-3, None), (1.2498e-2, None), (7.1119e-3, None)),
    1.0 / 50: ((4.8519e-3, 0.9769), (5.8081e-3, 1.1056), (3.5450e-3, 1.0044)),
    1.0 / 100: ((2.3840e-3, 1.0252), (2.7387e-3, 1.0846), (1.7314e-3, 1.0338)),
    1.0 / 200: ((1.1208e-3, 1.0889), (1.2629e-3, 1.1168), (8.1173e-4, 1.0929)),
    1.0 / 400: ((4.8213e-4, 1.2170), (5.3817e-4, 1.2306), (3.4862e-4, 1.2193)),
}


@pytest.mark.long
def test_criterion_3_full_resolution_table():
    scene = benchmark_scene()
    grid = scene.grid(400)
    dts = sorted(FULL_RES_TABLE, reverse=True)
    report = temporal_order(dts, 1.0 / 1600, grid, 0.2, scene)
    ok = True
    details = []
    for j, dt in enumerate(dts):
        for s, species in enumerate("abc"):
            want_err, want_order = FULL_RES_TABLE[dt][s]
            got_err = report.errors[j][s]
            if abs(got_err - want_err) > 0.10 * want_err:
                ok = False
                details.append(f"err_{species}(dt={dt:.4g}) {got_err:.4e} vs {want_err:.4e}")
            if want_order is not None:
                got_order = report.orders[j - 1][s]
                if abs(got_order - want_order) > 0.05:
                    ok = False
                    details.append(
                        f"order_{species}(dt={dt:.4g}) {got_order:.4f} vs {want_order:.4f}"
                    )
    check("3 full-resolution table within 10% / +-0.05", ok, "; ".join(details))


def test_criterion_4_energy_dissipation(energy_run):
    energies = [row.energy for row in energy_run]
    ok = all(
        e1 <= e0 + 1e-10 * (1.0 + abs(e0)) for e0, e1 in zip(energies, energies[1:])
    )
    check(
        "4 energy non-increasing over T=2",
        ok,
        f"F: {energies[0]:.6f} -> {energies[-1]:.6f} over {len(energies) - 1} steps",
    )


def test_criterion_5_positivity(energy_run):
    overall_min = min(min(r.min_a, r.min_b, r.min_c) for r in energy_run)
    check("5 strict positivity over T=2", overall_min > 0.0, f"min {overall_min:.3e}")


def test_criterion_6_mass_conservation(energy_run):
    first = energy_run[0]
    drift_ac = max(abs(r.mass_ac - first.mass_ac) / abs(first.mass_ac) for r in energy_run)
    drift_bc = max(abs(r.mass_bc - first.mass_bc) / abs(first.mass_bc) for r in energy_run)
    check(
        "6 mass drift <= 1e-8 relative",
        max(drift_ac, drift_bc) <= 1e-8,
        f"drift ac {drift_ac:.2e}, bc {drift_bc:.2e}",
    )


def test_criterion_7_reaction_oracle_equivalence():
    rng = np.random.default_rng(12345)
    n = 10_000
    a = rng.uniform(1e-3, 10.0, n)
    b = rng.uniform(1e-3, 10.0, n)
    c = rng.uniform(1e-3, 10.0, n)
    dt = rng.uniform(1e-4, 1.0, n)
    reference = bisect_reaction(a, b, c, dt)
    # One call of the Newton loop that solve_reaction_cell wraps; the per-cell
    # dt broadcasts through k- c dt.
    r, _, _ = _solve_field(a, b, c, dt, P_UNIT, DEFAULT_TOL, DEFAULT_MAX_ITER)
    worst = float(np.max(np.abs(r - reference)))
    ok = worst <= 1e-11
    # closed-form quadratic roots
    r1 = solve_reaction_cell(2.0, 2.0, 1.0, 0.1, P_UNIT)
    r2 = solve_reaction_cell(0.5, 1.0, 2.0, 0.05, P_UNIT)
    ok &= abs(r1 - (-5.0 + np.sqrt(37.0)) / 6.0) <= 1e-12
    ok &= abs(r2 - (-15.0 + np.sqrt(201.0)) / 12.0) <= 1e-12
    check(
        "7 reaction solve matches bisection oracle",
        ok,
        f"worst |Newton - bisection| = {worst:.2e} over {n} samples",
    )


def test_criterion_8_diffusion_oracle_equivalence():
    worst = 0.0
    for n in (8, 16, 32):
        grid = Grid.box(1, n)
        u = Field.from_function(grid, lambda x: np.cos(2.0 * np.pi * x))
        lam = (2.0 / grid.h**2) * (1.0 - np.cos(2.0 * np.pi * grid.h))
        for d in (1.0, 0.3):
            op = build_operators(grid, DiffusionCoeffs(d, d, d), 0.01)[0]
            out, _ = step_diffusion_species(u, op, tol=1e-12)
            expected = u.values / (1.0 + 0.01 * d * lam)
            worst = max(worst, float(np.max(np.abs(out.values - expected))))
    amp_ok = worst <= 1e-9

    rng = np.random.default_rng(777)
    grid = Grid.box(1, 16)
    tol = 1e-10
    props_ok = True
    op = build_operators(grid, DiffusionCoeffs(0.7, 0.7, 0.7), 0.05)[0]
    for _ in range(1000):
        u = Field(grid, rng.uniform(0.05, 2.0, grid.shape))
        out, _ = step_diffusion_species(u, op, tol=tol)
        eps = 10 * tol * norm_max(u)
        props_ok &= out.values.min() >= u.values.min() - eps
        props_ok &= out.values.max() <= u.values.max() + eps
        props_ok &= abs(mean_value(out) - mean_value(u)) <= 10 * tol * abs(mean_value(u)) + 1e-13
    check(
        "8 diffusion amplification + 1e3 field properties",
        amp_ok and props_ok,
        f"worst amplification error {worst:.2e}",
    )


def test_criterion_9_property_suite():
    ok = True
    details = []

    # operator self-adjointness, negative semidefiniteness, zero column sums
    rng = np.random.default_rng(4242)
    grid = Grid(2, 12, (-1.0, -1.0), (1.0, 1.0))
    d_var = lambda x, y: 0.4 + 0.3 * np.sin(np.pi * x) * np.cos(np.pi * y)  # noqa: E731
    for _ in range(5):
        f = Field(grid, rng.normal(size=grid.shape))
        g = Field(grid, rng.normal(size=grid.shape))
        lf = apply_variable_laplacian(f, d_var)
        lg = apply_variable_laplacian(g, d_var)
        sym = abs(inner_product(lf, g) - inner_product(f, lg))
        scale = max(abs(inner_product(lf, g)), 1.0)
        if sym > 1e-12 * scale:
            ok, details = False, details + [f"self-adjointness off by {sym:.2e}"]
        quad = inner_product(lf, f)
        if quad > 1e-13 * (1.0 + abs(quad)):
            ok, details = False, details + [f"<Lf,f> = {quad:.2e} > 0"]
        colsum = abs(np.sum(lf.values))
        bound = 1e-13 * norm_max(f) * 0.7 / grid.h**2 * grid.num_cells
        if colsum > bound:
            ok, details = False, details + [f"column sum {colsum:.2e}"]

    # ODE-limit order of the composed reaction steps vs RK4
    y0 = (2.0, 1.0, 0.5)
    t_final = 0.5
    cell = Grid.box(1, 1)
    errors = []
    dts = [0.1, 0.05, 0.025]
    for dt in dts:
        steps = round(t_final / dt)
        s = State.uniform(cell, *y0)
        for _ in range(steps):
            s, _ = step_reaction(s, dt, P_UNIT)
        ref = rk4_reaction(y0, t_final, 100 * steps)
        got = np.array([s.a.values.item(), s.b.values.item(), s.c.values.item()])
        errors.append(np.max(np.abs(got - ref)))
    orders = [
        np.log(e1 / e2) / np.log(d1 / d2)
        for (e1, d1), (e2, d2) in zip(zip(errors, dts), zip(errors[1:], dts[1:]))
    ]
    if not all(o >= 0.9 for o in orders):
        ok, details = False, details + [f"ODE orders {orders}"]

    # equilibrium fixed point
    eq = State.uniform(Grid(2, 8, (-1.0, -1.0), (1.0, 1.0)), 1.0, 1.0, 1.0)
    out, _ = full_step(State.from_stack(eq.grid, eq.u.copy()), P_UNIT,
                       build_operators(eq.grid, COEFFS, 0.1))
    dev = max(
        float(np.max(np.abs(o.values - i.values)))
        for o, i in zip((out.a, out.b, out.c), (eq.a, eq.b, eq.c))
    )
    if dev > 1e-12:
        ok, details = False, details + [f"fixed point deviates {dev:.2e}"]

    # bitwise-deterministic sequential reruns
    tables = []
    for _ in range(2):
        grid32 = Grid(2, 32, (-1.0, -1.0), (1.0, 1.0))
        _, rows = run_simulation(
            make_initial_condition(grid32), TimeConfig(0.01, 0.1), P_UNIT, COEFFS
        )
        buf = io.StringIO()
        write_diagnostics_csv(rows, buf)
        tables.append(buf.getvalue())
    if tables[0] != tables[1]:
        ok, details = False, details + ["reruns differ"]

    check("9 property suite", ok, "; ".join(details) or
          f"ODE orders {', '.join(f'{o:.3f}' for o in orders)}; fixed point dev {dev:.1e}")
