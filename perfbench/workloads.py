"""Benchmark workloads and their seeded inputs.

Every workload is the paper-2d scene (a disk of A at the origin, B as its
complement, C with two shallow dips, on (-1, 1)^2 with D = (0.05, 1, 0.1)
and all reference concentrations and rates 1), driven through the ``rxd``
command line.  A seed selects one of ``VARIANTS`` inputs: variant 0 is the
exact paper scene, the others shift every tanh structure by (i, j) * 0.1
with i, j in {-1, 0, 1}, so that no change can be tuned to a single input.
Each variant has a stored reference result under ``reference/`` made by the
solver at the commit that introduced this benchmark.

The shifts are whole multiples of 0.1 because 0.1 is a whole number of
cells on every grid of the spatial study (N = 40 ... 120) and on N = 400,
and a fraction of a cell on N = 128 and N = 256.  Shifts that are a
fraction of a cell on the study grids change where the fronts sit relative
to each grid, and the max-norm Cauchy orders of those coarse grids then
swing between 1.4 and 2.4, outside the [1.90, 2.10] band the study is
checked against.

The solver never sees the seed: it receives the generated fields, either as
arrays (the child process replaces the CLI's paper-2d initial condition) or
as ``rxd-field v1`` snapshot files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SHIFTS = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))
VARIANTS = len(SHIFTS)
SHIFT_STEP = 0.1
DOMAIN = (-1.0, 1.0)


@dataclass(frozen=True)
class Workload:
    """One ``rxd`` invocation; BENCHMARK.json says which layer it stresses."""

    name: str
    command: str
    n: int = 0
    dt: float = 0.0
    steps: int = 0
    checked: bool = True
    diagnostics_every: int = 1
    snapshot_every: int = 0
    snapshot_input: bool = False
    mesh_sizes: tuple[float, ...] = ()

    def argv(self, out_dir: str, input_paths: dict[str, str]) -> list[str]:
        """Arguments for ``rxd.cli.main``."""
        args = [self.command, "--out", out_dir,
                "--checked" if self.checked else "--unchecked"]
        if self.command == "study-space":
            return args + ["--jobs", "1", "--set", f"study_space.hs={json.dumps(self.mesh_sizes)}"]
        sets = {
            "grid.n": str(self.n),
            "time.dt": repr(self.dt),
            "time.t_final": repr(self.dt * self.steps),
            "output.diagnostics_every": str(self.diagnostics_every),
            "output.snapshot_every": str(self.snapshot_every),
        }
        if self.snapshot_input:
            sets["initial.kind"] = "snapshot"
            sets.update({f"initial.{s}": input_paths[s] for s in "abc"})
        for key, value in sets.items():
            args += ["--set", f"{key}={value}"]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-n256", "run", n=256, dt=0.01, steps=3),
        Workload("fine-dt-n400", "run", n=400, dt=1.0 / 1600, steps=3, checked=False,
                 diagnostics_every=0),
        # The three coarsest mesh sizes of the default study: the full
        # default (N = 40 ... 120) takes ~18 s, one unit per run, and its
        # run-to-run spread was 12%; this one takes ~3 s, so a run holds
        # several units and reports their median.
        Workload("study-space", "study-space", checked=False,
                 mesh_sizes=(1.0 / 20, 1.0 / 30, 1.0 / 40)),
        Workload("snapshot-io", "run", n=128, dt=0.01, steps=20, snapshot_every=1,
                 snapshot_input=True),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def shift_of(variant: int) -> tuple[float, float]:
    """Offset (dx, dy) of every tanh structure; exactly zero for variant 0."""
    i, j = SHIFTS[variant]
    return (i * SHIFT_STEP, j * SHIFT_STEP)


def initial_arrays(functions, n: int, shift: tuple[float, float]):
    """Sample the benchmark functions, shifted, at the cell centres of an n^2 grid.

    ``functions`` is ``rxd.benchmark_initial_functions()``.  Arrays have
    shape (n, n) with x along the last axis, matching ``rxd.Field``.
    """
    lo, hi = DOMAIN
    centres = lo + (np.arange(n) + 0.5) * ((hi - lo) / n)
    x, y = np.meshgrid(centres, centres)
    dx, dy = shift
    return tuple(np.asarray(f(x - dx, y - dy), dtype=float) for f in functions)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_snapshot(path: str, values: np.ndarray, time: float = 0.0) -> None:
    """Write a 2D field on the benchmark domain in the ``rxd-field v1`` format."""
    n = values.shape[0]
    lo, hi = DOMAIN
    with open(path, "w", encoding="ascii") as fh:
        fh.write("rxd-field v1\n")
        fh.write(f"dim=2 n={n} lower={_fmt(lo)},{_fmt(lo)} "
                 f"upper={_fmt(hi)},{_fmt(hi)} t={_fmt(time)}\n")
        fh.write("\n".join(_fmt(v) for v in values.ravel()))
        fh.write("\n")


def read_snapshot(path: str) -> np.ndarray:
    """Values of an ``rxd-field v1`` file as a flat array (header skipped)."""
    with open(path, "r", encoding="ascii") as fh:
        if fh.readline().rstrip("\n") != "rxd-field v1":
            raise ValueError(f"{path}: not an rxd-field v1 file")
        fh.readline()
        return np.array([float(line) for line in fh if line.strip()])
