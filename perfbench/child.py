"""One ``rxd`` command-line invocation in a fresh process, timed and optionally traced.

    python3 child.py JOB.json

The job gives the ``src`` directory to import ``rxd`` from, the arguments
for ``rxd.cli.main``, the shift of the seeded initial condition, the mode
(``full`` runs to the end, ``setup`` stops where the first step would
start) and whether to trace.  The child writes ``result.json`` beside the
job.  Times are ``time.monotonic()`` stamps: on Linux that clock is shared
by all processes, so the parent subtracts its own spawn stamp to get the
set-up time, interpreter start included.

Tracing wraps public ``rxd`` functions where they are looked up at call
time, i.e. in the module that imported them by name (``rxd.splitting``
binds ``step_reaction``, ``rxd.cli`` binds ``run_simulation``, ...), so no
source file changes.  A span records name, layer, start, end and parent;
spans stay in memory and are reduced to per-layer metrics at the end.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

CONFIG_FUNCTIONS = (
    "load_config", "apply_overrides", "build_grid", "build_params", "build_coeffs",
    "build_time", "build_options", "build_initial_factory", "build_scene",
)


class SetupDone(BaseException):
    """Raised at the first step of a set-up-only run; no ``rxd`` handler catches it."""


def _reaction_info(args, kwargs, out):
    iterations = out[1].iterations
    return (int(iterations.sum()), int(iterations.max()), int(iterations.size))


def _diffusion_info(args, kwargs, out):
    return [(r.iterations, r.final_relative_residual) for r in out[1]]


def _species_info(args, kwargs, out):
    return out[1].iterations


def _file_size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _write_info(args, kwargs, out):
    return _file_size(args[1] if len(args) > 1 else kwargs.get("dest"))


def _read_info(args, kwargs, out):
    return _file_size(args[0] if args else kwargs.get("src"))


def traced_functions(rxd_modules: dict) -> list:
    """(owner, attribute, layer, info) for every wrapped call site."""
    cli, splitting, study = rxd_modules["cli"], rxd_modules["splitting"], rxd_modules["study"]
    sites = [(cli, name, "cli", None) for name in CONFIG_FUNCTIONS]
    sites += [
        (cli, "write_diagnostics_csv", "cli", None),
        (cli, "run_simulation", "splitting", None),
        (study, "run_simulation", "splitting", None),
        (splitting, "full_step", "splitting", None),
        (splitting, "step_reaction", "reaction", _reaction_info),
        (splitting, "step_diffusion", "diffusion", _diffusion_info),
        (rxd_modules["diffusion"], "step_diffusion_species", "diffusion", _species_info),
        (splitting, "discrete_energy", "grid", None),
        (splitting, "mean_value", "grid", None),
        (rxd_modules["grid"].State, "require_positive", "grid", None),
        (cli, "write_field", "snapshots", _write_info),
        (cli, "read_field", "snapshots", _read_info),
        (cli, "spatial_cauchy_order", "study", None),
        (study, "compare_fields", "study", None),
    ]
    return sites


class Tracer:
    """In-memory spans: [name, layer, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, layer: str, info=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [attr, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.monotonic()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, out)
            return out

        setattr(owner, attr, traced)


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics from the spans of one traced invocation (times in ms)."""
    count = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child_sum = [0.0] * count
    in_step = [False] * count
    for i, s in enumerate(spans):
        parent = s[4]
        if parent >= 0:
            child_sum[parent] += dur[i]
            in_step[i] = spans[parent][0] == "full_step" or in_step[parent]
    self_time = [d - c for d, c in zip(dur, child_sum)]

    def select(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total_ms(name):
        return 1e3 * sum(dur[i] for i in select(name))

    steps = max(1, len(select("full_step")))
    reaction = [spans[i][5] for i in select("step_reaction")]
    newton_sum = sum(r[0] for r in reaction)
    newton_slots = sum(r[1] * r[2] for r in reaction)
    diffusion = [spans[i][5] for i in select("step_diffusion")]
    cg_total = sum(spans[i][5] for i in select("step_diffusion_species"))
    study_spans = select("spatial_cauchy_order")

    def under_study(i):
        parent = spans[i][4]
        while parent >= 0:
            if spans[parent][0] == "spatial_cauchy_order":
                return True
            parent = spans[parent][4]
        return False

    study_solve = sum(dur[i] for i in select("run_simulation") if under_study(i))
    study_wall = sum(dur[i] for i in study_spans)
    outermost_grid = [
        i for i, s in enumerate(spans)
        if s[1] == "grid" and in_step[i] and spans[s[4]][1] != "grid"
    ]
    config = [
        i for i, s in enumerate(spans)
        if s[0] in CONFIG_FUNCTIONS and (s[4] < 0 or spans[s[4]][0] not in CONFIG_FUNCTIONS)
    ]
    metrics = {
        "reaction.ms_per_step": total_ms("step_reaction") / steps,
        "reaction.newton_iters_mean": newton_sum / max(1, sum(r[2] for r in reaction)),
        "reaction.newton_iters_max": max((r[1] for r in reaction), default=0),
        "reaction.active_fraction": newton_sum / max(1, newton_slots),
        "diffusion.ms_per_step": total_ms("step_diffusion") / steps,
        "diffusion.ms_per_cg_iter": total_ms("step_diffusion_species") / max(1, cg_total),
        "diffusion.final_residual_max": max(
            (res for step in diffusion for _, res in step), default=0.0),
        "grid.checks_ms_per_step": 1e3 * sum(dur[i] for i in outermost_grid) / steps,
        "splitting.step_self_ms": 1e3 * sum(self_time[i] for i in select("full_step")) / steps,
        "splitting.driver_self_ms":
            1e3 * sum(self_time[i] for i in select("run_simulation")) / steps,
        "snapshots.write_ms": total_ms("write_field"),
        "snapshots.write_mb": sum(spans[i][5] for i in select("write_field")) / 1e6,
        "snapshots.read_ms": total_ms("read_field"),
        "snapshots.read_mb": sum(spans[i][5] for i in select("read_field")) / 1e6,
        "study.compare_ms": total_ms("compare_fields"),
        "study.solve_share": study_solve / study_wall if study_wall > 0 else 0.0,
        "cli.config_ms": 1e3 * sum(dur[i] for i in config),
        "cli.diag_write_ms": total_ms("write_diagnostics_csv"),
    }
    for k, s in enumerate("abc"):
        metrics[f"diffusion.cg_iters.{s}"] = (
            sum(step[k][0] for step in diffusion) / max(1, len(diffusion)))
    self_by_layer: dict[str, float] = {}
    for s, t in zip(spans, self_time):
        self_by_layer[s[1]] = self_by_layer.get(s[1], 0.0) + 1e3 * t
    return {
        "metrics": metrics,
        "self_ms": self_by_layer,
        "steps": len(select("full_step")),
        "spans": count,
        "nesting_excess_s": max((c - d for c, d in zip(child_sum, dur)), default=0.0),
    }


def peak_rss_kb() -> int:
    """Peak resident set of this process image.

    ``ru_maxrss`` is not used: on Linux it carries the spawning process's
    peak across ``exec``, so a large parent would hide the child's figure.
    ``VmHWM`` belongs to the current image only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def blas_info(np) -> dict:
    """BLAS library, version and the thread count it runs with."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    if threads is None:
        threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path[:0] = [job["src"], BENCH_DIR]
    import numpy as np

    import rxd
    from rxd import cli, diffusion, grid, splitting, study

    import checks
    from workloads import initial_arrays

    t_import = time.monotonic()
    shift = tuple(job["shift"])

    def seeded_initial_condition(g):
        a, b, c = initial_arrays(rxd.benchmark_initial_functions(), g.n, shift)
        state = rxd.State(rxd.Field(g, a), rxd.Field(g, b), rxd.Field(g, c), time=0.0)
        state.require_positive("seeded initial condition")
        return state

    cli.make_initial_condition = seeded_initial_condition

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        modules = {"cli": cli, "diffusion": diffusion, "grid": grid,
                   "splitting": splitting, "study": study}
        for site in traced_functions(modules):
            tracer.wrap(*site)

    runs = []
    stamps = {}
    for owner in (cli, study):
        owner.run_simulation = _timed(owner.run_simulation, runs, stamps, job["mode"] == "setup")

    rc = 0
    try:
        rc = cli.main(job["argv"])
    except SetupDone:
        pass
    t_end = time.monotonic()
    times = os.times()
    result = {
        "rc": rc,
        "t_import": t_import,
        "t_first_step": stamps.get("first_step"),
        "t_end": t_end,
        "peak_rss_kb": peak_rss_kb(),
        "cpu_s": times.user + times.system,
        "blas": blas_info(np),
        "runs": [
            {
                "cells_steps": int(initial[0].size) * steps,
                "solve_s": solve_s,
                "initial": checks.summarize(*initial, cell_volume),
                "final": checks.summarize(*final, cell_volume),
            }
            for initial, final, steps, solve_s, cell_volume in runs
        ],
    }
    if tracer is not None:
        result["trace"] = layer_metrics(tracer.spans)
        result["trace"]["unwrapped"] = tracer.missing
    with open(os.path.join(os.path.dirname(job_path), "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


def _timed(fn, runs: list, stamps: dict, stop_at_first_step: bool):
    """Wrap ``run_simulation``: stamp the first step and keep each run's states."""

    def run_simulation(initial, tc, *args, **kwargs):
        start = [f.values.copy() for _, f in initial.species()]
        t0 = time.monotonic()
        stamps.setdefault("first_step", t0)
        if stop_at_first_step:
            raise SetupDone
        final, rows = fn(initial, tc, *args, **kwargs)
        solve_s = time.monotonic() - t0
        runs.append((start, [f.values for _, f in final.species()], tc.steps, solve_s,
                     initial.grid.cell_volume))
        return final, rows

    return run_simulation


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
