"""Allocation budgets of the split step and of a run, in multiples of one field's size.

Both stages are memory-bound passes over the grid, so every field-sized
temporary costs a pass over fresh memory.  The traced peak of each stage
(at N = 256, after a warm-up call) must stay within a fixed number of field
sizes; the inputs, outputs and scratch arrays each stage needs fit within it.
A run keeps its workspace and reuses the stacks of states no caller holds,
so its peak over several steps is bounded as tightly as one step's.
The snapshot writer formats a fixed-size chunk at a time, so its peak does
not grow with the field.
"""

import tracemalloc

import numpy as np
import pytest

from rxd import DiffusionCoeffs, Grid, ModelParams, SolverOptions, TimeConfig
from rxd import make_initial_condition, run_simulation, step_diffusion, step_reaction, write_field

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


def test_reaction_stage_peak(state):
    # the output stack (3), R (1) and the per-cell iteration counts (1)
    peak = _peak_in_fields(lambda: step_reaction(state, DT, ModelParams(1.0, 1.0, 1.0)))
    assert peak <= 6.0, peak


def test_diffusion_stage_peak(state):
    # the output stack (3), the workspace (3 arrays and a half-size complex
    # spectrum, ~4), the three preconditioner symbols (3/2) and finiteness
    # masks
    coeffs = DiffusionCoeffs(0.05, 1.0, 0.1)
    peak = _peak_in_fields(lambda: step_diffusion(state, coeffs, DT))
    assert peak <= 9.0, peak


def test_run_peak(state):
    # 4 unchecked steps: the workspace and symbols (11/2), the state being
    # advanced (3) and the reaction's output stack, R and iteration counts
    # (5); the diffusion writes into the stack of the state it consumed.
    # Measured 13.5; one more stack per step would exceed the budget.
    tc = TimeConfig(DT, 4 * DT)
    options = SolverOptions(checked=False)
    coeffs = DiffusionCoeffs(0.05, 1.0, 0.1)
    peak = _peak_in_fields(
        lambda: run_simulation(state, tc, ModelParams(1.0, 1.0, 1.0), coeffs, options))
    assert peak <= 14.5, peak


def test_snapshot_writer_peak_is_chunk_bounded(state, tmp_path):
    # the rows, their bytes copy and the text of one chunk: measured 765 kB
    # at both sizes (1,310 kB with a byte mask and np.compress per chunk)
    coarse = make_initial_condition(Grid.box(2, N // 2, -1.0, 1.0))
    peaks = [_peak_bytes(lambda: write_field(s.a, tmp_path / "a.txt")) for s in (coarse, state)]
    assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0], peaks
    assert max(peaks) <= 1.5 * 2**20, peaks
