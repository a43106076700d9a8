"""Allocation budgets of the split step and of a run, in multiples of one field's size.

Both stages are memory-bound passes over the grid, so every field-sized
temporary costs a pass over fresh memory.  The traced peak of each stage
(at N = 256, after a warm-up call) must stay within a fixed number of field
sizes.  Every function advances the state it is given, and only a state
handed to ``on_snapshot`` is copied before the next step.  So a stage's peak
is only its own temporaries, and a run, which keeps one workspace for both
stages, holds no stack of its own unless it takes snapshots; each test hands
a stepping call a copy of the module's state, made before tracing starts.
The snapshot writer formats a fixed-size chunk at a time, so its peak does
not grow with the field.
"""

import tracemalloc

import numpy as np
import pytest

from rxd import DiffusionCoeffs, Grid, ModelParams, SolverOptions, State, TimeConfig
from rxd import discrete_energy, make_initial_condition, run_simulation, step_diffusion
from rxd import step_reaction, write_field
from rxd.diffusion import build_operators

N = 256
DT = 0.01


def _peak_bytes(fn) -> int:
    fn()  # warm-up: first-call caches are not part of the budget
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


def test_snapshot_writer_peak_is_chunk_bounded(state, tmp_path):
    # the rows, their bytes copy and the text of one chunk: measured 765 kB
    # at both sizes (1,310 kB with a byte mask and np.compress per chunk)
    coarse = make_initial_condition(Grid.box(2, N // 2, -1.0, 1.0))
    peaks = [_peak_bytes(lambda: write_field(s.a, tmp_path / "a.txt")) for s in (coarse, state)]
    assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0], peaks
    assert max(peaks) <= 1.5 * 2**20, peaks
