"""Tests of the benchmark itself, separate from the solver's suite.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import SHIFT_STEP, VARIANTS, WORKLOADS, initial_arrays, shift_of, variant_of  # noqa: E402

sys.path.insert(0, run.SRC)

from rxd import Grid, benchmark_initial_functions, make_initial_condition  # noqa: E402

COUNTS = ("reaction.newton_iters_mean", "reaction.newton_iters_max",
          "reaction.active_fraction", "diffusion.cg_iters.a", "diffusion.cg_iters.b",
          "diffusion.cg_iters.c")


def test_seed_zero_is_the_paper_scene():
    for n in (40, 128):
        state = make_initial_condition(Grid.box(2, n, -1.0, 1.0))
        arrays = initial_arrays(benchmark_initial_functions(), n, shift_of(variant_of(0)))
        for field, values in zip((state.a, state.b, state.c), arrays):
            assert np.array_equal(field.values, values)


def test_seeds_give_fixed_small_shifts():
    shifts = [shift_of(variant_of(seed)) for seed in range(1, VARIANTS)]
    assert len(set(shifts)) == VARIANTS - 1
    assert all(0 < max(abs(dx), abs(dy)) <= SHIFT_STEP for dx, dy in shifts)
    assert shift_of(variant_of(7)) == shift_of(variant_of(7))


def test_every_workload_variant_has_a_reference():
    for name in WORKLOADS:
        for variant in range(VARIANTS):
            assert run.load_reference(name, variant)["finals"]


def test_checks_flag_broken_invariants():
    n = 8
    a, b, c = (np.full((n, n), v) for v in (0.5, 0.6, 0.7))
    good = checks.summarize(a, b, c, 0.25)
    assert checks.check_states([{"initial": good, "final": good}]) == []
    leaked = checks.summarize(a * 0.9, b, c, 0.25)
    assert any("mass_ac" in p for p in checks.check_states([{"initial": good, "final": leaked}]))
    negative = checks.summarize(a - 1.0, b, c, 0.25)
    assert checks.check_states([{"initial": good, "final": negative}])
    assert checks.check_study([1.99, 2.3]) and not checks.check_study([1.95, 2.05])


def test_fingerprint_moves_by_the_full_change_of_one_cell():
    fields = [np.random.default_rng(k).random((32, 32)) + 0.5 for k in range(3)]
    moved = [f.copy() for f in fields]
    moved[1][17, 3] += 2e-6
    moved[1][17, 4] -= 2e-6
    diff = np.abs(np.subtract(checks.fingerprint(moved), checks.fingerprint(fields)))
    assert diff.max() == pytest.approx(2e-6, rel=1e-6)
    assert diff.max() > checks.FIELD_TOL


def _traced_units():
    report = run.measure(WORKLOADS["snapshot-io"], seed=5, seconds=0, trace=True)
    assert report["failed"] == 0, report["problems"]
    assert report["metrics"]["trace.overhead"]["value"] > 0
    return report, [u for u in report["units"] if u["traced"]]


def test_traced_run_nests_spans_and_repeats_counts():
    first, traced_first = _traced_units()
    _, traced_second = _traced_units()
    for unit in traced_first + traced_second:
        assert unit["trace"]["nesting_excess_s"] <= 1e-9
        assert unit["trace"]["unwrapped"] == []
    metrics = first["metrics"]
    assert metrics["snapshots.write_ms"]["value"] > 0
    assert metrics["grid.checks_ms_per_step"]["value"] > 0
    for name in COUNTS:
        assert (traced_first[0]["trace"]["metrics"][name]
                == traced_second[0]["trace"]["metrics"][name]), name


def test_exits_nonzero_without_the_solver(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-n256", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
