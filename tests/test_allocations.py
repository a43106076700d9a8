"""Allocation budgets of the split step and of a run, in multiples of one field's size.

Both stages are memory-bound passes over the grid, so every field-sized
temporary costs a pass over fresh memory.  The traced peak of each stage
(at N = 256, after a warm-up call) must stay within a fixed number of field
sizes; the inputs, outputs and scratch arrays each stage needs fit within it.
Each stage can also run in place on its input's stack, where its peak is
only its own temporaries.  A run keeps its workspace and advances one
stack in place, so its peak over several steps is bounded as tightly as
one step's.
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


def test_reaction_stage_in_place_peak(state):
    # R (1), the per-cell iteration counts (1) and one block's temporaries;
    # measured 3.13, where a copy of the stack would add 3
    work = State.from_stack(state.grid, state.u.copy())
    peak = _peak_in_fields(lambda: step_reaction(work, DT, ModelParams(1.0, 1.0, 1.0),
                                                 in_place=True))
    assert peak <= 3.5, peak


def test_diffusion_stage_in_place_peak(state):
    # the scratch row (1) and smaller temporaries; measured 1.38
    coeffs = DiffusionCoeffs(0.05, 1.0, 0.1)
    ops = build_operators(state.grid, coeffs, DT)
    work = State.from_stack(state.grid, state.u.copy())
    peak = _peak_in_fields(lambda: step_diffusion(work, coeffs, DT, ops=ops, in_place=True))
    assert peak <= 1.5, peak


def test_energy_peak(state):
    # one scratch row (measured 1.0); the plain expression held two
    peak = _peak_in_fields(lambda: discrete_energy(state, ModelParams(1.0, 1.0, 1.0)))
    assert peak <= 1.25, peak


def test_run_peak(state):
    # 4 unchecked steps: the workspace and symbols (11/2), the one stack the
    # run advances in place (3), and R, the iteration counts and one block's
    # temporaries while the reaction runs (~3).  Measured 11.66; a second
    # stack per step would exceed the budget.
    tc = TimeConfig(DT, 4 * DT)
    options = SolverOptions(checked=False)
    coeffs = DiffusionCoeffs(0.05, 1.0, 0.1)
    peak = _peak_in_fields(
        lambda: run_simulation(state, tc, ModelParams(1.0, 1.0, 1.0), coeffs, options))
    assert peak <= 12.0, peak


def test_snapshot_writer_peak_is_chunk_bounded(state, tmp_path):
    # the rows, their bytes copy and the text of one chunk: measured 765 kB
    # at both sizes (1,310 kB with a byte mask and np.compress per chunk)
    coarse = make_initial_condition(Grid.box(2, N // 2, -1.0, 1.0))
    peaks = [_peak_bytes(lambda: write_field(s.a, tmp_path / "a.txt")) for s in (coarse, state)]
    assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0], peaks
    assert max(peaks) <= 1.5 * 2**20, peaks
