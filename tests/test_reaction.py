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
from rxd import diffusion, reaction
from rxd.reaction import BLOCK, DEFAULT_MAX_ITER, DEFAULT_TOL, _solve_field
from oracles import bisect_reaction, exact_trajectory_sign, reaction_residual_plain
from oracles import reaction_solve_plain, rk4_reaction, trajectory_residual

P_UNIT = ModelParams(1.0, 1.0, 1.0)


def _copy(state):
    """A state on a new stack: step_reaction advances the stack it is given."""
    return State.from_stack(state.grid, state.u.copy(), state.time)


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
    for dt in (0.0, -0.1, float("nan")):
        with pytest.raises(PositivityError, match="step_reaction: dt must be positive"):
            step_reaction(State.uniform(Grid.box(2, 4), 1.0, 1.0, 1.0), dt, P_UNIT)


def test_iteration_cap_reports_cell_data():
    # The closed-form start meets the default tol here; tol=1e-300 forces
    # the polishing loop to run into its cap.
    with pytest.raises(ConvergenceError, match="a=2.0"):
        solve_reaction_cell(2.0, 2.0, 1.0, 0.1, P_UNIT, tol=1e-300, max_iter=1)


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


@pytest.mark.parametrize("a,b,c,dt", NEAR_SINGULAR)
def test_near_singular_inputs_need_few_iterations(a, b, c, dt):
    # Bisection from the bracket ends needs ~80 halvings to reach a root of
    # ~1e-152 in a bracket of width ~1; the closed form leaves at most a
    # short polish.
    cells = (np.array([v]) for v in (a, b, c))
    _, iterations, _ = _solve_field(*cells, dt, P_UNIT, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert iterations.max() <= 3


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


def _mixed_cells(shape, seed):
    # Log-uniform cells with c = 1e-300 and c = 1e-12 cells mixed in, some
    # all-1e-12 cells that need the Newton loop, and dt up to 100.
    rng = np.random.default_rng(seed)
    a, b, c = np.exp(rng.uniform(np.log(1e-4), np.log(10.0), (3, *shape)))
    dt = np.exp(rng.uniform(np.log(1e-3), np.log(100.0), shape))
    for v in (a, b, c, dt):
        v.flat[7::101] = 1e-12
    c.flat[::97] = 1e-300
    c.flat[5::89] = 1e-12
    return a, b, c, dt


@pytest.mark.parametrize("shape", [(BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (2 * BLOCK + 7,),
                                   (129, 129)])
@pytest.mark.parametrize("per_cell_dt", [True, False])
def test_blocked_solve_matches_one_block(monkeypatch, shape, per_cell_dt):
    a, b, c, dt = _mixed_cells(shape, seed=sum(shape))
    if not per_cell_dt:
        dt = 2.0
    params = ModelParams(1.0, 1.0, 1.0, 2.0, 2.0)  # k- dt > 1 wherever dt > 1/2
    blocked = _solve_field(a, b, c, dt, params, DEFAULT_TOL, DEFAULT_MAX_ITER)
    monkeypatch.setattr(reaction, "BLOCK", a.size)
    whole = _solve_field(a, b, c, dt, params, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert blocked[0].shape == blocked[1].shape == shape
    np.testing.assert_array_equal(blocked[0].view(np.uint64), whole[0].view(np.uint64))
    np.testing.assert_array_equal(blocked[1], whole[1])
    assert blocked[2] == whole[2]
    assert blocked[1].max() > 0  # the Newton loop ran in some block
    r = blocked[0]
    assert np.all(a - r > 0.0) and np.all(b - r > 0.0) and np.all(c + r > 0.0)


def _nan_workspace(shape):
    work = diffusion._Workspace(shape)
    for view in (work.flux, work.tmp, work.res, work.rows):
        view.fill(np.nan)
    return work


@pytest.mark.parametrize("shape", [(BLOCK - 1,), (BLOCK + 1,), (2 * BLOCK + 7,), (129, 129)])
@pytest.mark.parametrize("dt", [None, 100.0, 1e-310])
@pytest.mark.parametrize("params", [ModelParams(1.0, 1.0, 1.0, 2.0, 2.0),  # k- dt > 1 for dt > 1/2
                                    ModelParams(0.3, 0.7, 0.35, 1.0, 0.6)])  # no power of two
def test_solve_through_workspace_rows_matches_plain_expressions(shape, dt, params):
    # Scratch rows read before they are written would carry the NaN into R.
    a, b, c, per_cell_dt = _mixed_cells(shape, seed=sum(shape))
    overflow = dt != 100.0
    dt = per_cell_dt if dt is None else dt
    # With dt = 1e-310, R / (k- c dt) overflows at the closed form, so
    # ln(1 + R/(k- c dt)) is taken as a difference of logarithms.
    a.flat[3::211] = b.flat[3::211] = 1e154
    c.flat[3::211] = 1e-5
    if isinstance(dt, np.ndarray):
        dt.flat[3::211] = 1e-310
    work = _nan_workspace(shape)
    got = _solve_field(a, b, c, dt, params, DEFAULT_TOL, DEFAULT_MAX_ITER, work.rows)
    want = reaction_solve_plain(a, b, c, dt, params, DEFAULT_TOL, DEFAULT_MAX_ITER)
    np.testing.assert_array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert got[1].max() > 0  # the polish loop ran
    cdt = np.maximum(params.k_minus * c * dt, np.nextafter(0.0, 1.0))
    out, tmp = np.full((2, *shape), np.nan)
    g = reaction._residual(got[0], a, b, c, cdt, params, out, tmp)
    np.testing.assert_array_equal(
        g.view(np.uint64), reaction_residual_plain(got[0], a, b, c, cdt, params).view(np.uint64))
    if overflow:
        with np.errstate(over="ignore"):
            assert np.isinf(got[0].flat[3] / (params.k_minus * 1e-5 * 1e-310))


def test_foreign_workspace_is_refused(monkeypatch):
    # Rows that would drop cells are refused before any row of the stack is
    # written: from a smaller grid's workspace, or sized for a smaller BLOCK.
    state = State.uniform(Grid.box(2, 16), 2.0, 2.0, 1.0)
    before = state.u.copy()
    with pytest.raises(ValueError, match=r"rows of shape \(5, 64\) cannot hold blocks "
                                         r"of shape \(5, 256\)"):
        step_reaction(state, 0.1, P_UNIT, rows=diffusion._Workspace((8, 8)).rows)
    monkeypatch.setattr(reaction, "BLOCK", 100)
    short = diffusion._Workspace((16, 16))
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"rows of shape \(5, 100\) cannot hold blocks "
                                         r"of shape \(5, 256\)"):
        step_reaction(state, 0.1, P_UNIT, rows=short.rows)
    np.testing.assert_array_equal(state.u, before)


def test_workspace_rows_serve_a_smaller_block(monkeypatch):
    # Rows sized for a larger BLOCK than the one in force are sliced per block.
    a, b, c, dt = _mixed_cells((2 * 300 + 7,), seed=3)
    rows = _nan_workspace(a.shape).rows
    want = _solve_field(a, b, c, dt, P_UNIT, DEFAULT_TOL, DEFAULT_MAX_ITER)
    monkeypatch.setattr(reaction, "BLOCK", 300)
    got = _solve_field(a, b, c, dt, P_UNIT, DEFAULT_TOL, DEFAULT_MAX_ITER, rows)
    np.testing.assert_array_equal(got[0].view(np.uint64), want[0].view(np.uint64))
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


def test_stall_in_a_later_block_names_its_global_cell():
    size = 2 * BLOCK + 7
    a, b, c, dt = (np.full(size, v) for v in (0.5, 0.7, 0.3, 0.01))
    cell = BLOCK + 5
    a[cell], b[cell], c[cell], dt[cell] = 1e-12, 2e-12, 3e-12, 4e-12  # needs 6 iterations
    with pytest.raises(ConvergenceError) as exc_info:
        _solve_field(a, b, c, dt, P_UNIT, DEFAULT_TOL, max_iter=1)
    message = str(exc_info.value)
    assert f"at cell {cell}: a=1e-12 b=2e-12 c=3e-12 dt=4e-12 residual" in message


def _benchmark_scene(n):
    return make_initial_condition(Grid(2, n, (-1.0, -1.0), (1.0, 1.0)))


@pytest.mark.parametrize("dt", [1 / 1600, 0.01, 1.0, 100.0])
def test_benchmark_scene_matches_oracle(dt):
    s = _benchmark_scene(32)
    _, result = step_reaction(_copy(s), dt, P_UNIT)
    reference = bisect_reaction(*s.u, dt)
    np.testing.assert_allclose(result.r.values, reference, rtol=0.0, atol=1e-11)


# (a_inf, b_inf, c_inf, k+, k-) with k+ a_inf b_inf = k- c_inf.
DETAILED_BALANCE = [(1.0, 1.0, 1.0, 1.0, 1.0), (2.0, 0.5, 1.5, 1.5, 1.0), (1.0, 1.0, 1.0, 2.0, 2.0)]


@pytest.mark.parametrize("rates", DETAILED_BALANCE)
@pytest.mark.parametrize("dt", [1 / 1600, 0.01, 1.0, 100.0])
def test_closed_form_root_needs_no_newton(dt, rates):
    # The quadratic's root is the solve, not a start that Newton repairs: a
    # wrong coefficient would show here as iterations or as a gap to the
    # oracle.  The oracle's equation has k- = 1, so k- dt is its dt.
    a_inf, b_inf, c_inf, k_plus, k_minus = rates
    p = ModelParams(a_inf, b_inf, c_inf, k_plus=k_plus, k_minus=k_minus)
    s = _benchmark_scene(32)
    _, result = step_reaction(_copy(s), dt, p)
    assert result.iterations.max() == 0
    reference = bisect_reaction(*s.u, k_minus * dt, a_inf=a_inf, b_inf=b_inf, c_inf=c_inf)
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


def test_newton_counts_use_the_smallest_type_that_holds_max_iter():
    # A count never exceeds max_iter; the sum over a field, which the
    # benchmark harness takes, must still be the exact total.
    rng = np.random.default_rng(60)
    a, b, c = 10.0 ** rng.uniform(-14.0, 3.0, (3, 400, 400))
    _, counts, _ = _solve_field(a, b, c, 1.0, P_UNIT, DEFAULT_TOL, DEFAULT_MAX_ITER)
    _, wide, _ = _solve_field(a, b, c, 1.0, P_UNIT, DEFAULT_TOL, 1000)
    assert (counts.dtype, wide.dtype) == (np.uint8, np.uint16)
    np.testing.assert_array_equal(counts, wide)
    total = int(counts.astype(np.int64).sum())
    assert total > 255 and counts.sum() == total
    assert step_reaction(_benchmark_scene(8), 0.01, P_UNIT)[1].iterations.dtype == np.uint8


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
    star, result = step_reaction(_copy(s), 0.1, P_UNIT)
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
    star, result = step_reaction(_copy(s), 0.07, P_UNIT)
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
    star, _ = step_reaction(_copy(s), 0.3, P_UNIT)
    ac = s.a.values + s.c.values
    bc = s.b.values + s.c.values
    assert np.all(np.abs((star.a.values + star.c.values) - ac) <= 2 * np.spacing(ac))
    assert np.all(np.abs((star.b.values + star.c.values) - bc) <= 2 * np.spacing(bc))


@pytest.mark.parametrize("dt", [1e-3, 0.01, 1.0, 100.0])
def test_step_reaction_conserves_sums_to_roundoff(dt):
    # a* + c* = (a - R) + (c + R) rounds three times, so it is not a + c
    # exactly: 0.3 and 0.7 with R = 0.1 give 0.9999999999999999.  The bound
    # is |a* + c* - (a + c)| <= 2 eps (a + c); on the benchmark state about a
    # quarter of the cells differ.  Random cells are log-uniform in [1e-12, 10].
    assert (0.3 - 0.1) + (0.7 + 0.1) != 0.3 + 0.7
    eps = np.finfo(float).eps
    g = Grid.box(2, 64)
    cells = 10.0 ** np.random.default_rng(23).uniform(-12.0, 1.0, (3,) + g.shape)
    for s in (make_initial_condition(Grid.box(2, 256, -1.0, 1.0)), State.from_stack(g, cells, 0.0)):
        star, _ = step_reaction(_copy(s), dt, P_UNIT)
        for i in (0, 1):
            total = s.u[i] + s.u[2]
            assert np.all(np.abs((star.u[i] + star.u[2]) - total) <= 2.0 * eps * total)


@pytest.mark.parametrize("rate", [1e160, 1e200, 1e300])
def test_huge_rate_constants_warn_nothing(rate):
    # a_inf = k- = rate keeps detailed balance; B of the closed form
    # overflows, the bracket test drops its root and Newton converges from 0.
    # Warnings are errors here.
    eps = np.finfo(float).eps
    s = _benchmark_scene(8)
    params = ModelParams(rate, 1.0, 1.0, k_plus=1.0, k_minus=rate)
    star, _ = step_reaction(_copy(s), 0.01, params)
    assert np.all(star.u > 0.0)
    for i in (0, 1):
        total = s.u[i] + s.u[2]
        assert np.all(np.abs((star.u[i] + star.u[2]) - total) <= 2.0 * eps * total)


@pytest.mark.parametrize("k,dt", [(1e-308, 0.01), (1.0, 1e-320), (1e-300, 1e-20)])
def test_subnormal_rate_times_dt_resolves_the_root(k, dt):
    # k- c dt ~ 1e-311 or 1e-321 puts the root ~1e300 below min(a, b), where
    # bisection from the domain's ends stalled and 1/(R + k- c dt) overflowed.
    # There R << a, b, c, so R = k- c dt expm1(-G(0)) up to the subnormal
    # spacing, which also keeps |G| above tol.  Warnings are errors here.
    s = _benchmark_scene(16)
    a, b, c = s.u
    _, result = step_reaction(_copy(s), dt, ModelParams(1.0, 1.0, 1.0, k_plus=k, k_minus=k))
    r, cdt = result.r.values, k * c * dt
    assert np.all(cdt < np.finfo(float).tiny) and np.all(cdt > 0.0)
    assert np.all(r > -np.minimum(cdt, c)) and np.all(r < np.minimum(a, b))
    assert np.all(a - r > 0.0) and np.all(b - r > 0.0) and np.all(c + r > 0.0)
    np.testing.assert_allclose(r, cdt * np.expm1(np.log(a * b / c)), rtol=1e-9, atol=2e-323)
    assert result.iterations.max() <= 2


# Roots next to the singularity -min(k- c dt, c): two within 1e-15 relative
# of -k- c dt, one 1.2e-15 k- c dt above it (arithmetic bisection took 52
# iterations), and one below the first double above -c, which R must then be.
NEAR_EDGE = [
    pytest.param(4.4e-10, 2.7e-10, 0.14, 1e-100, None, id="margin-1e-100"),
    pytest.param(4.4e-10, 2.7e-10, 0.14, 1e-8, None, id="margin-1e-08"),
    pytest.param(0.0027, 1.6e-14, 0.04, 1e-100, None, id="bisected-1e-100"),
    pytest.param(1.4577449460398597e-215, 9.72773890048322e-299, 1.5306975279389277e-39,
                 266323.7371005737, np.nextafter(-1.5306975279389277e-39, 0.0),
                 id="unrepresentable"),
]


@pytest.mark.parametrize("a,b,c,dt,pinned", NEAR_EDGE)
def test_root_next_to_a_singularity_is_exact_to_two_ulps(a, b, c, dt, pinned):
    # G changes sign exactly within 2 ulps of R, the ends of the bracket
    # counting as -inf and +inf.  Warnings are errors here.
    cells = (np.array([v]) for v in (a, b, c))
    r, iterations, _ = _solve_field(*cells, dt, P_UNIT, DEFAULT_TOL, DEFAULT_MAX_ITER)
    r, cdt = float(r[0]), P_UNIT.k_minus * c * dt
    lo, hi = -min(cdt, c), min(a, b)
    assert iterations[0] <= 3 and lo < r < hi
    below, above = (np.nextafter(np.nextafter(r, end), end) for end in (lo, hi))
    assert exact_trajectory_sign(max(below, lo), a, b, c, cdt) < 0
    assert exact_trajectory_sign(min(above, hi), a, b, c, cdt) > 0
    assert pinned is None or r == pinned


def test_polish_iterations_are_bounded():
    # Arithmetic bisection took up to 53-56 iterations on the first cells at
    # dt <= 1e-3; on the second, R / (k- c dt) overflowed with a warning.
    # Warnings are errors here.
    rng = np.random.default_rng(5)
    unit = 10.0 ** rng.uniform(-14.0, 3.0, (3, 20_000))
    huge = 10.0 ** rng.uniform(-300.0, 300.0, (3, 20_000))
    huge_dt = 10.0 ** rng.uniform(-320.0, -3.0, 20_000)
    cases = [(unit, dt, 10) for dt in (1e-305, 1e-100, 1e-8, 1e-3, 1.0, 1e3)]
    for (a, b, c), dt, most in [*cases, (huge, huge_dt, 30)]:
        r, iterations, _ = _solve_field(a, b, c, dt, P_UNIT, DEFAULT_TOL, DEFAULT_MAX_ITER)
        assert iterations.max() <= most
        cdt = np.maximum(c * dt, np.nextafter(0.0, 1.0))
        assert np.all(a - r > 0.0) and np.all(b - r > 0.0) and np.all(c + r > 0.0)
        assert np.all(r + cdt > 0.0)


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
    before = discrete_energy(s, P_UNIT)
    assert discrete_energy(step_reaction(s, 0.25, P_UNIT)[0], P_UNIT) <= before


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
