"""Allocation budgets of the split step and of a run, in multiples of one field's size.

Both stages are memory-bound passes over the grid, so every field-sized
temporary costs a pass over fresh memory.  The traced peak of each stage
(at N = 256, after a warm-up call) must stay within a fixed number of field
sizes.  Every function advances the state it is given, and only a state
handed to ``on_snapshot`` is copied before the next step.  So a stage's peak
is only its own temporaries, and a run, which keeps one workspace for both
stages, holds no stack of its own unless it takes snapshots; each test hands
a stepping call a copy of the module's state, made before tracing starts.
A study holds one earlier final state beside the run it is doing.
The snapshot writer formats a fixed-size chunk at a time, so its peak does
not grow with the field.
"""

import tracemalloc

import numpy as np
import pytest

from rxd import DiffusionCoeffs, Grid, ModelParams, SolverOptions, State, TimeConfig
from rxd import discrete_energy, make_initial_condition, run_simulation, step_diffusion
from rxd import benchmark_scene, step_reaction, temporal_order, write_field
from rxd.diffusion import build_operators
from rxd.study import RUN_PEAK_FIELDS, Scene

N = 256
DT = 0.01


def _peak_bytes(fn, warm_up=None) -> int:
    (warm_up or fn)()  # first-call caches are not part of the budget
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _peak_in_fields(fn) -> float:
    return _peak_bytes(fn) / (N * N * np.dtype(float).itemsize)


@pytest.fixture(scope="module")
def state():
    return make_initial_condition(Grid.box(2, N, -1.0, 1.0))


def _copy(state):
    """A state on a new stack: the stages and runs advance the state they are given."""
    return State.from_stack(state.grid, state.u.copy(), state.time)


def test_operator_build_peak(state):
    # the workspace: one buffer for the stencil scratch, the spectrum and the
    # symbol (2) and the residual (1); measured 3.04, where three stored
    # symbols and a separate spectrum gave 5.66
    coeffs = DiffusionCoeffs(0.05, 1.0, 0.1)
    peak = _peak_in_fields(lambda: build_operators(state.grid, coeffs, DT))
    assert peak <= 3.25, peak


def test_reaction_stage_in_place_peak(state):
    # R (1), the uint8 per-cell iteration counts (1/8) and the five block
    # rows of this call (0.63); measured 1.80 (2.26 with a block's ~11
    # temporaries), where a copy of the stack would add 3
    work = _copy(state)
    peak = _peak_in_fields(lambda: step_reaction(work, DT, ModelParams(1.0, 1.0, 1.0)))
    assert peak <= 2.0, peak


def test_reaction_stage_in_the_run_workspace_peak(state):
    # R (1) and the uint8 iteration counts (1/8): the block rows are the
    # workspace's; measured 1.18
    work = _copy(state)
    ops = build_operators(state.grid, DiffusionCoeffs(0.05, 1.0, 0.1), DT)
    peak = _peak_in_fields(lambda: step_reaction(work, DT, ModelParams(1.0, 1.0, 1.0),
                                                 rows=ops[0].work.rows))
    assert peak <= 1.25, peak


def test_diffusion_stage_in_place_peak(state):
    # the scratch row (1) and smaller temporaries; measured 1.38
    coeffs = DiffusionCoeffs(0.05, 1.0, 0.1)
    ops = build_operators(state.grid, coeffs, DT)
    work = _copy(state)
    peak = _peak_in_fields(lambda: step_diffusion(work, ops))
    assert peak <= 1.5, peak


def test_energy_peak(state):
    # one scratch row (measured 1.0); the plain expression held two
    peak = _peak_in_fields(lambda: discrete_energy(state, ModelParams(1.0, 1.0, 1.0)))
    assert peak <= 1.25, peak


def test_run_peak(state):
    # 4 unchecked steps advancing the initial stack itself: the workspace
    # (3), which holds the reaction's block rows, and R, the iteration
    # counts and the reaction's smaller temporaries (~1.4).  Measured 4.41
    # (7.41 when a run copied its initial state, 8.29 with a block's
    # temporaries allocated per step); a second stack would exceed the budget.
    tc = TimeConfig(DT, 4 * DT)
    options = SolverOptions(checked=False)
    coeffs = DiffusionCoeffs(0.05, 1.0, 0.1)
    starts = [_copy(state) for _ in range(2)]  # call and warm-up
    peak = _peak_in_fields(lambda: run_simulation(
        starts.pop(), tc, ModelParams(1.0, 1.0, 1.0), coeffs, options))
    assert peak <= 4.75, peak


def test_run_snapshot_peak(state):
    # the run of test_run_peak handing every state, the module's own
    # included, to on_snapshot: each step copies the held state (3) into
    # the stack it advances, and lets go of the previous step's stack
    # before the reaction allocates R; measured 9.03, where a step that
    # kept both the held stack and the previous one gave 10.41
    tc = TimeConfig(DT, 4 * DT)
    options = SolverOptions(checked=False)
    coeffs = DiffusionCoeffs(0.05, 1.0, 0.1)
    peak = _peak_in_fields(lambda: run_simulation(
        state, tc, ModelParams(1.0, 1.0, 1.0), coeffs, options, snapshot_every=1,
        on_snapshot=lambda k, s: None))
    assert peak <= 9.25, peak


def test_temporal_study_peak():
    # the reference's final (3) beside the next run: its state (3) and what
    # test_run_peak measures (4.41); measured 10.42, where a study that kept
    # every run's final until the last gave 13.42
    scene = benchmark_scene()
    grid = scene.grid(N)
    peak = _peak_in_fields(lambda: temporal_order([0.02, 0.01], 0.005, grid, 0.02, scene))
    assert peak <= 11.0, peak


def _cosine(x, *rest):
    return 1.0 + 0.5 * np.cos(np.pi * x)


def _smooth_initial(grid):
    """Positive data in any dim: 1 + s/2, 1 - s/2, 1 + s/4, with s the mean of cos(pi x_i)."""
    s = sum(np.cos(np.pi * x) for x in grid.mesh()) / grid.dim
    return State.from_stack(grid, np.stack([1.0 + 0.5 * s, 1.0 - 0.5 * s, 1.0 + 0.25 * s]), 0.0)


@pytest.mark.parametrize("kind", ["run", "study"])
@pytest.mark.parametrize("dim,n", [(1, 32768), (2, 160), (3, 36)])
@pytest.mark.parametrize("d_b", [1.0, _cosine], ids=["constant", "cosine"])
def test_every_run_kind_peaks_within_the_memory_bound(d_b, dim, n, kind):
    # Scene.grid refuses a grid by RUN_PEAK_FIELDS, so it must bound every
    # kind of run: a checked run with a snapshot every step, or a temporal
    # study, initial state included.  A cosine d_b iterates CG (z, p and A p),
    # and so does a constant D in 1D at this n.  The peak does not depend on the
    # iteration count, so a mild amplitude keeps the test fast.  Measured 12.0
    # (2D, 3D) and 15.0 (1D) with constant D, 16.0 (1D, 2D) and 16.6 (3D) with
    # cosine; the 3D cosine kind reads 16.41 at N = 40 and 16.10 at N = 64.
    scene = Scene((-1.0,) * dim, (1.0,) * dim, ModelParams(1.0, 1.0, 1.0),
                  DiffusionCoeffs(0.05, d_b, 0.1), _smooth_initial)

    def on(n):
        grid = Grid.box(dim, n, -1.0, 1.0)
        if kind == "study":
            return lambda: temporal_order([0.02, 0.01], 0.005, grid, 0.02, scene)
        return lambda: run_simulation(scene.initial(grid), TimeConfig(0.01, 0.02), scene.params,
                                      scene.coeffs, SolverOptions(checked=True),
                                      snapshot_every=1, on_snapshot=lambda k, s: None)

    peak = _peak_bytes(on(n), warm_up=on(4)) / (n**dim * np.dtype(float).itemsize)
    assert peak <= RUN_PEAK_FIELDS, peak


def test_snapshot_writer_peak_is_chunk_bounded(state, tmp_path):
    # the rows, their bytes copy and the text of one chunk: measured 765 kB
    # at both sizes (1,310 kB with a byte mask and np.compress per chunk)
    coarse = make_initial_condition(Grid.box(2, N // 2, -1.0, 1.0))
    peaks = [_peak_bytes(lambda: write_field(s.a, tmp_path / "a.txt")) for s in (coarse, state)]
    assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0], peaks
    assert max(peaks) <= 1.5 * 2**20, peaks
