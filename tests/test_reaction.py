"""Reaction-trajectory solve: scalar oracle checks and stage properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxd import (
    ConvergenceError,
    DiffusionCoeffs,
    Field,
    Grid,
    ModelParams,
    PositivityError,
    State,
    discrete_energy,
    make_initial_condition,
    solve_reaction_cell,
    step_diffusion,
    step_reaction,
)
from rxd.reaction import DEFAULT_MAX_ITER, DEFAULT_TOL, _solve_field
from oracles import bisect_reaction, rk4_reaction, trajectory_residual

P_UNIT = ModelParams(1.0, 1.0, 1.0)

# Roots of the exponentiated trajectory equation for the two closed-form
# cases; exponentiating reduces them to 3R^2 + 5R - 1 = 0 and
# 6R^2 + 15R + 1 = 0, and an independent bisection to 1e-14 agrees.
ROOT_2_2_1 = (-5.0 + np.sqrt(37.0)) / 6.0          # 0.1804604217163699
ROOT_HALF_1_2 = (-15.0 + np.sqrt(201.0)) / 12.0    # -0.06854609343684788


def test_equilibrium_root_is_zero():
    assert solve_reaction_cell(1.0, 1.0, 1.0, 0.1, P_UNIT) == 0.0


def test_quadratic_root_a2_b2_c1():
    r = solve_reaction_cell(2.0, 2.0, 1.0, 0.1, P_UNIT)
    assert r == pytest.approx(ROOT_2_2_1, abs=1e-13)
    assert bisect_reaction(2.0, 2.0, 1.0, 0.1) == pytest.approx(ROOT_2_2_1, abs=1e-14)


def test_quadratic_root_ahalf_b1_c2():
    r = solve_reaction_cell(0.5, 1.0, 2.0, 0.05, P_UNIT)
    assert r == pytest.approx(ROOT_HALF_1_2, abs=1e-13)
    assert bisect_reaction(0.5, 1.0, 2.0, 0.05) == pytest.approx(ROOT_HALF_1_2, abs=1e-14)
    assert -2.0 * 0.05 < r < 0.5


def test_rejects_nonpositive_inputs():
    with pytest.raises(PositivityError):
        solve_reaction_cell(-1.0, 1.0, 1.0, 0.1, P_UNIT)
    with pytest.raises(PositivityError):
        solve_reaction_cell(1.0, 1.0, 1.0, -0.1, P_UNIT)


def test_iteration_cap_reports_cell_data():
    with pytest.raises(ConvergenceError, match="a=2.0"):
        solve_reaction_cell(2.0, 2.0, 1.0, 0.1, P_UNIT, max_iter=1)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(1e-3, 10.0),
    b=st.floats(1e-3, 10.0),
    c=st.floats(1e-3, 10.0),
    dt=st.floats(1e-4, 1.0),
)
def test_root_properties(a, b, c, dt):
    r = solve_reaction_cell(a, b, c, dt, P_UNIT)
    # positivity of the updated concentrations, strictly
    assert a - r > 0.0
    assert b - r > 0.0
    assert c + r > 0.0
    assert r + c * dt > 0.0
    # the root has the sign of the net forward rate; the sign is only
    # required to be strict when the equilibrium gap is resolvable above
    # the residual tolerance of the solve
    gap = np.log(a * b / c)
    if a * b >= c:
        assert r >= 0.0
    if a * b <= c:
        assert r <= 0.0
    if gap > 1e-6:
        assert r > 0.0
    elif gap < -1e-6:
        assert r < 0.0
    # agreement with the independent bisection oracle
    assert r == pytest.approx(float(bisect_reaction(a, b, c, dt)), abs=1e-11)


# Inputs at the bracket ends: a or b at 1e-14 with c dt = 1e-303 near the
# bottom of the double range, and every input at 1e-12.
NEAR_SINGULAR = [
    (1e-14, 1.0, 1e-300, 1e-3),
    (1.0, 1e-14, 1e-300, 1e-3),
    (1.0, 1.0, 1e-300, 1e-3),
    (1e-12, 1e-12, 1e-12, 1e-12),
]


@pytest.mark.parametrize("a,b,c,dt", NEAR_SINGULAR)
def test_near_singular_inputs(a, b, c, dt):
    r = solve_reaction_cell(a, b, c, dt, P_UNIT)
    assert a - r > 0.0 and b - r > 0.0 and c + r > 0.0 and r + c * dt > 0.0
    # G changes sign across R (1 -+ 1e-9).  With a = b = c = dt = 1e-12 the
    # root sits 1e-36 above -c dt, closer than 1e-9 |R|, so there the probe
    # steps 1e-3 of that gap instead and stays inside the bracket.
    delta = min(1e-9 * abs(r), 1e-3 * (r + c * dt))
    assert trajectory_residual(r - delta, a, b, c, dt) < 0.0
    assert trajectory_residual(r + delta, a, b, c, dt) > 0.0
    if c == 1e-300:
        # c << R << a, b: R^2 = c dt a b to leading order (3.162e-152 at a = b = 1).
        assert r == pytest.approx(np.sqrt(c * dt) * np.sqrt(a * b), rel=1e-12)
    # the field solve is the same loop
    g = Grid.box(1, 1)
    _, result = step_reaction(State.uniform(g, a, b, c), dt, P_UNIT)
    assert result.r.values[0] == r


def test_large_dt_inputs_converge():
    # With k- dt > 1 the left end of the bracket is -c, not -k- c dt; a
    # bracket reaching past -c put iterates where ln(c + R) is NaN.
    rng = np.random.default_rng(1)
    a, b, c = np.exp(rng.uniform(np.log(1e-4), np.log(10.0), (3, 2000)))
    dt = rng.uniform(1.0, 100.0, 2000)
    stalled_before = (0.0019222, 0.0014988, 0.0070625, 20.84)
    a, b, c, dt = (np.append(v, x) for v, x in zip((a, b, c, dt), stalled_before))
    r, _, max_residual = _solve_field(a, b, c, dt, P_UNIT, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert max_residual <= DEFAULT_TOL
    assert np.all(a - r > 0.0) and np.all(b - r > 0.0) and np.all(c + r > 0.0)


def _benchmark_scene(n):
    return make_initial_condition(Grid(2, n, (-1.0, -1.0), (1.0, 1.0)))


@pytest.mark.parametrize("dt", [1 / 1600, 0.01, 1.0, 100.0])
def test_benchmark_scene_matches_oracle(dt):
    s = _benchmark_scene(32)
    _, result = step_reaction(s, dt, P_UNIT)
    reference = bisect_reaction(*s.u, dt)
    np.testing.assert_allclose(result.r.values, reference, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("dt,max_newton", [(0.01, 5), (1 / 1600, 4)])
def test_newton_iterations_on_benchmark_scene(dt, max_newton):
    # Starting from R = 0 alone took up to 13 (dt = 0.01) and 14 (dt = 1/1600)
    # iterations over these steps.
    s = _benchmark_scene(64)
    coeffs = DiffusionCoeffs(0.05, 1.0, 0.1)
    for _ in range(3):
        star, result = step_reaction(s, dt, P_UNIT)
        assert result.iterations.max() <= max_newton
        s, _ = step_diffusion(star, coeffs, dt)


def test_bracket_endpoints_bound_the_residual():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b, c = rng.uniform(1e-3, 10.0, size=3)
        dt = rng.uniform(1e-4, 1.0)
        lo, hi = -c * dt, min(a, b)
        width = hi - lo
        assert trajectory_residual(lo + 1e-12 * width, a, b, c, dt) < 0.0
        assert trajectory_residual(hi - 1e-12 * width, a, b, c, dt) > 0.0


def test_step_reaction_equilibrium_is_identity():
    g = Grid.box(2, 6)
    s = State.uniform(g, 1.0, 1.0, 1.0)
    star, result = step_reaction(s, 0.1, P_UNIT)
    np.testing.assert_array_equal(star.a.values, s.a.values)
    np.testing.assert_array_equal(star.c.values, s.c.values)
    assert result.max_residual == 0.0
    assert star.time == s.time


def test_step_reaction_uniform_quadratic_case():
    g = Grid.box(2, 5)
    s = State.uniform(g, 2.0, 2.0, 1.0)
    star, result = step_reaction(s, 0.1, P_UNIT)
    np.testing.assert_allclose(star.a.values, 1.81953957828363, rtol=1e-12)
    np.testing.assert_allclose(star.b.values, 1.81953957828363, rtol=1e-12)
    np.testing.assert_allclose(star.c.values, 1.18046042171637, rtol=1e-12)
    assert result.max_residual <= 1e-12
    assert result.iterations.max() <= 10


def test_step_reaction_matches_scalar_solver():
    rng = np.random.default_rng(20)
    g = Grid.box(2, 7)
    s = State(
        Field(g, rng.uniform(0.1, 3.0, g.shape)),
        Field(g, rng.uniform(0.1, 3.0, g.shape)),
        Field(g, rng.uniform(0.1, 3.0, g.shape)),
    )
    star, result = step_reaction(s, 0.07, P_UNIT)
    for idx in np.ndindex(g.shape):
        r_cell = solve_reaction_cell(
            float(s.a.values[idx]), float(s.b.values[idx]), float(s.c.values[idx]),
            0.07, P_UNIT,
        )
        assert result.r.values[idx] == r_cell


def test_step_reaction_pointwise_conservation():
    rng = np.random.default_rng(21)
    g = Grid.box(1, 64)
    s = State(
        Field(g, rng.uniform(1e-2, 5.0, g.shape)),
        Field(g, rng.uniform(1e-2, 5.0, g.shape)),
        Field(g, rng.uniform(1e-2, 5.0, g.shape)),
    )
    star, _ = step_reaction(s, 0.3, P_UNIT)
    ac = s.a.values + s.c.values
    bc = s.b.values + s.c.values
    assert np.all(np.abs((star.a.values + star.c.values) - ac) <= 2 * np.spacing(ac))
    assert np.all(np.abs((star.b.values + star.c.values) - bc) <= 2 * np.spacing(bc))


def test_step_reaction_dissipates_energy():
    rng = np.random.default_rng(22)
    g = Grid.box(2, 8)
    for _ in range(5):
        s = State(
            Field(g, rng.uniform(0.05, 4.0, g.shape)),
            Field(g, rng.uniform(0.05, 4.0, g.shape)),
            Field(g, rng.uniform(0.05, 4.0, g.shape)),
        )
        dt = rng.uniform(1e-3, 0.5)
        before = discrete_energy(s, P_UNIT)
        star, _ = step_reaction(s, dt, P_UNIT)
        after = discrete_energy(star, P_UNIT)
        assert after <= before + 1e-12 * (1.0 + abs(before))
    # uniform states too
    s = State.uniform(g, 3.0, 0.2, 0.9)
    assert discrete_energy(step_reaction(s, 0.25, P_UNIT)[0], P_UNIT) <= discrete_energy(
        s, P_UNIT
    )


def test_reaction_steps_converge_to_ode_limit():
    # Composing n implicit reaction steps approximates the reaction-only ODE
    # to first order; RK4 with step dt/100 serves as the reference.
    y0 = (2.0, 1.0, 0.5)
    t_final = 0.5
    g = Grid.box(1, 1)
    errors = []
    dts = [0.1, 0.05, 0.025]
    for dt in dts:
        n = round(t_final / dt)
        s = State.uniform(g, *y0)
        for _ in range(n):
            s, _ = step_reaction(s, dt, P_UNIT)
        ref = rk4_reaction(y0, t_final, 100 * n)
        approx = np.array([s.a.values.ravel()[0], s.b.values.ravel()[0], s.c.values.ravel()[0]])
        errors.append(np.max(np.abs(approx - ref)))
    orders = [
        np.log(e1 / e2) / np.log(d1 / d2)
        for (e1, d1), (e2, d2) in zip(zip(errors, dts), zip(errors[1:], dts[1:]))
    ]
    assert all(o >= 0.9 for o in orders), (errors, orders)


def test_general_rates_reduce_to_scaled_ode():
    # With k+ = k- = 2 the net rate doubles; one tiny step should match the
    # forward-Euler increment dt * (k+ ab - k- c) to leading order.
    p = ModelParams(1.0, 1.0, 1.0, k_plus=2.0, k_minus=2.0)
    a, b, c, dt = 1.5, 0.8, 0.4, 1e-6
    r = solve_reaction_cell(a, b, c, dt, p)
    assert r == pytest.approx(dt * (2.0 * a * b - 2.0 * c), rel=1e-4)
