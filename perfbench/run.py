"""Benchmark of the rxd solver, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each unit of work is one ``rxd``
command-line invocation in a fresh process (``child.py``), so set-up time
and peak memory belong to that invocation.  Units repeat, closed loop and
one at a time, until ``--seconds`` have passed.  Metrics are medians over
the units.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (interpreter
start, ``rxd`` import, config, grid and initial condition, up to the first
step), ``wall_s`` (first step to finished outputs), ``cell_steps_per_s``
(sum of cells x steps over the time spent in ``run_simulation``) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced units and
reports per-layer metrics from the traced ones; ``trace.overhead`` is the
ratio of their median wall times.

Every unit is checked (``checks.py``); a unit fails on a nonzero exit, a
solver exception or a failed check, and ``failed / attempted`` is the fail
rate.  BLAS runs on one thread, so a unit never has more runnable threads
than there are cores.  The last line of standard output is the result as
one JSON object; earlier lines, prefixed ``#``, name every metric with its
unit and record the environment.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
CHILD = os.path.join(BENCH_DIR, "child.py")

# Every run must end within 180 s; no unit may start past this budget.
HARD_LIMIT_S = 165.0

# BENCHMARK.json names every metric and its unit.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
from workloads import WORKLOADS, initial_arrays, shift_of, variant_of, write_snapshot  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (no solver source, no reference, ...)."""


def load_reference(name: str, variant: int) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["variants"][str(variant)]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference for {name} variant {variant} in {path}") from exc


def prepare_inputs(workload, shift, work_dir: str) -> dict[str, str]:
    """Seeded snapshot files for workloads that read their initial state."""
    if not workload.snapshot_input:
        return {}
    sys.path.insert(0, SRC)
    from rxd import benchmark_initial_functions

    arrays = initial_arrays(benchmark_initial_functions(), workload.n, shift)
    paths = {}
    for s, values in zip("abc", arrays):
        paths[s] = os.path.join(work_dir, f"input_{s}.txt")
        write_snapshot(paths[s], values)
    return paths


def run_child(workload, shift, inputs, unit_dir: str, mode: str, trace: bool,
              timeout: float) -> dict:
    """Spawn one child; returns its result with the spawn stamp, or an ``error``."""
    os.makedirs(unit_dir)
    out_dir = os.path.join(unit_dir, "out")
    job = {"src": SRC, "argv": workload.argv(out_dir, inputs), "shift": list(shift),
           "mode": mode, "trace": trace}
    job_path = os.path.join(unit_dir, "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, job_path], cwd=unit_dir,
                              capture_output=True, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "out_dir": out_dir}
    result_path = os.path.join(unit_dir, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: {' | '.join(tail)}", "out_dir": out_dir}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result["t_first_step"] is None:
        return {"error": "rxd exited without reaching a first step", "out_dir": out_dir}
    result.update(t_spawn=t_spawn, out_dir=out_dir, traced=trace,
                  setup_s=result["t_first_step"] - t_spawn)
    return result


def run_unit(workload, shift, inputs, unit_dir, trace, timeout, reference) -> dict:
    """One full invocation, checked; ``problems`` is empty when it passed."""
    result = run_child(workload, shift, inputs, unit_dir, "full", trace, timeout)
    if "error" in result:
        result["problems"] = [result["error"]]
        return result
    result["wall_s"] = result["t_end"] - result["t_first_step"]
    try:
        result["deviation"], result["problems"] = checks.verify_unit(
            workload, result["out_dir"], result, reference)
    except (OSError, ValueError, KeyError) as exc:
        result["deviation"], result["problems"] = None, [f"unreadable output: {exc}"]
    return result


def end_to_end_metrics(units: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "cell_steps_per_s": statistics.median(
            sum(r["cells_steps"] for r in u["runs"]) / sum(r["solve_s"] for r in u["runs"])
            for u in units),
        "peak_rss_mb": statistics.median(u["peak_rss_kb"] / 1024.0 for u in units),
    }


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    out = {
        name: statistics.median(u["trace"]["metrics"][name] for u in traced)
        for name in PER_LAYER
        if name in traced[0]["trace"]["metrics"]
    }
    out["process.cpu_s"] = statistics.median(u["cpu_s"] for u in untraced)
    out["process.blas_threads"] = traced[0]["blas"]["threads"]
    out["trace.overhead"] = (statistics.median(u["wall_s"] for u in traced)
                             / statistics.median(u["wall_s"] for u in untraced))
    return out


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run units of ``workload`` for ``seconds``; returns the aggregated report."""
    if not os.path.exists(os.path.join(SRC, "rxd", "__init__.py")):
        raise BenchError(f"solver source not found under {SRC}")
    variant = variant_of(seed)
    shift = shift_of(variant)
    reference = load_reference(workload.name, variant)
    start = time.monotonic()
    deadline = start + seconds
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    units: list[dict] = []

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - start)

    try:
        inputs = prepare_inputs(workload, shift, work)
        # Untimed warm-up: byte-compiles rxd and fills the file cache.
        run_child(workload, shift, inputs, os.path.join(work, "warmup"), "setup", False,
                  remaining())
        need = 2 if trace else 1
        last = 0.0
        while len(units) < need or (time.monotonic() + last <= deadline
                                    and remaining() > 2 * last):
            traced = trace and len(units) % 2 == 1
            unit_dir = os.path.join(work, f"u{len(units)}")
            unit = run_unit(workload, shift, inputs, unit_dir, traced, remaining(), reference)
            shutil.rmtree(unit_dir, ignore_errors=True)
            units.append(unit)
            last = unit.get("wall_s", 0.0) + unit.get("setup_s", 0.0)
            if remaining() <= 0:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    passed = [u for u in units if not u["problems"]]
    timed = passed or [u for u in units if "wall_s" in u]
    if not timed:
        raise BenchError("no unit produced timings: " + "; ".join(units[0]["problems"]))
    untraced = [u for u in timed if not u["traced"]]
    traced_units = [u for u in timed if u["traced"]]
    if trace and not (untraced and traced_units):
        raise BenchError("trace needs at least one untraced and one traced unit to pass")
    metrics = (per_layer_metrics(untraced, traced_units) if trace
               else end_to_end_metrics(untraced))
    units_of = PER_LAYER if trace else END_TO_END
    deviations = [u["deviation"] for u in units if u.get("deviation") is not None]
    return {
        "workload": workload.name,
        "seed": seed,
        "variant": variant,
        "shift": shift,
        "attempted": len(units),
        "failed": len(units) - len(passed),
        "problems": sorted({p for u in units for p in u["problems"]}),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units_of.items()},
        "reference_deviation": max(deviations, default=None),
        "self_ms": traced_units[0]["trace"]["self_ms"] if trace else None,
        "unwrapped": traced_units[0]["trace"]["unwrapped"] if trace else None,
        "blas": timed[0]["blas"],
        "units": units,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(blas: dict, loadavg: list[float]) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas.get("threads"),
        "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": loadavg,
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    loadavg = list(os.getloadavg())
    try:
        report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment(report["blas"], loadavg)
    print(f"# workload {report['workload']} seed {report['seed']} variant {report['variant']} "
          f"shift {report['shift']} trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in report["metrics"].items():
        print(f"# {name:30s} {m['value']:.6g} {m['unit']}")
    print("# unit wall_s " + " ".join(f"{u['wall_s']:.3f}" for u in report["units"]
                                      if "wall_s" in u))
    print(f"# fail_rate {report['failed']}/{report['attempted']}; "
          f"reference deviation {report['reference_deviation']!r} (information only)")
    if report["self_ms"]:
        print("# self_ms_by_layer " + json.dumps(
            dict(sorted(report["self_ms"].items(), key=lambda kv: -kv[1]))))
    if report["unwrapped"]:
        print(f"# not traced (missing): {', '.join(report['unwrapped'])}")
    for problem in report["problems"]:
        print(f"# FAILED: {problem}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
