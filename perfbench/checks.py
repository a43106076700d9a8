"""Correctness gate: the paper's guarantees and agreement with the stored reference.

Every check here uses numpy only, never ``rxd``, so a defect in the solver
cannot hide itself.  A unit (one ``rxd`` invocation) passes when

* cellwise positivity holds in every final state,
* the free energy does not increase (per step where ``diagnostics.csv``
  has one row per step, otherwise from initial to final state),
* ``<a+c,1>`` and ``<b+c,1>`` do not drift,
* ``study-space`` orders lie in [1.90, 2.10],
* written snapshots hold exactly the final state, and
* the per-row and per-column sums of the final fields (``fingerprint``)
  match the reference within ``FIELD_TOL``, so a difference confined to one
  cell, or spread over a row or column, is caught once it exceeds that.

The reference tolerance admits roundoff-level solver changes (a different
but equally converged linear solve) and nothing larger.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from workloads import read_snapshot

ENERGY_SLACK = 1e-10
MASS_DRIFT_TOL = 1e-8
ORDER_RANGE = (1.90, 2.10)
FIELD_TOL = 1e-6
STUDY_ERROR_RTOL = 1e-3


def summarize(a: np.ndarray, b: np.ndarray, c: np.ndarray, cell_volume: float) -> dict:
    """Positivity, energy, conserved masses and fingerprint of one state.

    The scene's reference concentrations are all 1, so the free energy is
    sum_s <s (ln s - 1), 1>.
    """
    species = (a, b, c)
    mins = [float(s.min()) for s in species]
    energy = None
    if min(mins) > 0.0:
        energy = cell_volume * sum(float(np.sum(s * (np.log(s) - 1.0))) for s in species)
    return {
        "min": mins,
        "energy": energy,
        "mass_ac": cell_volume * float(np.sum(a + c)),
        "mass_bc": cell_volume * float(np.sum(b + c)),
        "fingerprint": fingerprint(species),
    }


def fingerprint(species) -> list[float]:
    """Per-row and per-column sums of every species, 2N numbers each.

    A change of size e in any one cell moves one row sum and one column sum
    by the full e; a change spread over a row or column moves its sum by
    the total.
    """
    out = []
    for s in species:
        s = np.asarray(s, dtype=float)
        s = s.reshape(s.shape[0], -1)
        out.extend(float(v) for v in s.sum(axis=1))
        out.extend(float(v) for v in s.sum(axis=0))
    return out


def _drifted(now: float, ref: float) -> bool:
    return abs(now - ref) > MASS_DRIFT_TOL * abs(ref)


def _energy_rose(before: float, after: float) -> bool:
    return after > before + ENERGY_SLACK * (1.0 + abs(before))


def check_states(runs: list[dict]) -> list[str]:
    """Invariants between the initial and final state of every solver run."""
    problems = []
    for j, run in enumerate(runs):
        first, last = run["initial"], run["final"]
        if min(last["min"]) <= 0.0 or last["energy"] is None:
            problems.append(f"run {j}: final state not strictly positive: {last['min']}")
            continue
        if _energy_rose(first["energy"], last["energy"]):
            problems.append(f"run {j}: energy rose {first['energy']!r} -> {last['energy']!r}")
        for key in ("mass_ac", "mass_bc"):
            if _drifted(last[key], first[key]):
                problems.append(f"run {j}: {key} drifted {first[key]!r} -> {last[key]!r}")
    return problems


def check_diagnostics(path: str, steps: int) -> list[str]:
    """Per-step positivity, energy decay and mass conservation from diagnostics.csv."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != steps + 1:
        return [f"diagnostics.csv has {len(rows)} rows, expected {steps + 1}"]
    problems = []
    first = rows[0]
    for prev, row in zip(rows, rows[1:]):
        k = row["step"]
        if min(float(row[f"min_{s}"]) for s in "abc") <= 0.0:
            problems.append(f"step {k}: non-positive minimum")
        if _energy_rose(float(prev["energy"]), float(row["energy"])):
            problems.append(f"step {k}: energy rose")
        for key in ("mass_ac", "mass_bc"):
            if _drifted(float(row[key]), float(first[key])):
                problems.append(f"step {k}: {key} drifted")
    return problems


def read_study_csv(path: str) -> tuple[list[list[float]], list[float]]:
    """(per-row errors, all orders) from spatial_orders.csv."""
    errors, orders = [], []
    with open(path, newline="", encoding="ascii") as fh:
        for row in csv.DictReader(fh):
            errors.append([float(row[f"err_{s}"]) for s in "abc"])
            orders += [float(row[f"order_{s}"]) for s in "abc" if row[f"order_{s}"]]
    return errors, orders


def check_study(orders: list[float]) -> list[str]:
    if not orders:
        return ["spatial_orders.csv has no orders"]
    lo, hi = ORDER_RANGE
    bad = [o for o in orders if not lo <= o <= hi]
    return [f"spatial orders outside [{lo}, {hi}]: {bad}"] if bad else []


def check_snapshots(out_dir: str, steps: int, every: int, final: dict) -> list[str]:
    """The snapshot files exist for every step and the last one is the final state."""
    problems = []
    expected = list(range(0, steps + 1, every))
    for k in expected:
        for s in "abc":
            if not os.path.exists(os.path.join(out_dir, f"field_{s}_step{k}.txt")):
                problems.append(f"missing snapshot field_{s}_step{k}.txt")
    if problems:
        return problems
    last = [read_snapshot(os.path.join(out_dir, f"field_{s}_step{expected[-1]}.txt"))
            for s in "abc"]
    n = int(round(np.sqrt(last[0].size)))
    if fingerprint([v.reshape(n, n) for v in last]) != final["fingerprint"]:
        problems.append(f"snapshot at step {expected[-1]} differs from the final state")
    return problems


def compare_reference(runs: list[dict], study_errors, reference: dict) -> tuple[float, list[str]]:
    """Largest absolute difference of the final row and column sums from the reference."""
    ref_finals = reference["finals"]
    if len(ref_finals) != len(runs):
        return float("inf"), [f"{len(runs)} solver runs, reference has {len(ref_finals)}"]
    dev = max(
        float(np.max(np.abs(np.array(run["final"]["fingerprint"]) - np.array(ref))))
        for run, ref in zip(runs, ref_finals)
    )
    problems = []
    if dev > FIELD_TOL:
        problems.append(f"final row/column sums deviate from the reference by {dev:.3e} "
                        f"> {FIELD_TOL}")
    if reference.get("study_errors") is not None:
        got = np.array(study_errors, dtype=float)
        want = np.array(reference["study_errors"], dtype=float)
        rel = float(np.max(np.abs(got - want) / want))
        if rel > STUDY_ERROR_RTOL:
            problems.append(f"study errors deviate from the reference by {rel:.3e} (relative)")
    return dev, problems


def verify_unit(workload, out_dir: str, result: dict, reference) -> tuple:
    """All checks for one finished unit; returns (reference deviation, problems).

    ``reference`` None skips the comparison (used when making references).
    """
    runs = result["runs"]
    if not runs:
        return float("inf"), ["the solver never ran"]
    problems = check_states(runs)
    study_errors = None
    if workload.command == "study-space":
        study_errors, orders = read_study_csv(os.path.join(out_dir, "spatial_orders.csv"))
        problems += check_study(orders)
    elif workload.diagnostics_every == 1:
        problems += check_diagnostics(os.path.join(out_dir, "diagnostics.csv"), workload.steps)
    if workload.snapshot_every:
        problems += check_snapshots(out_dir, workload.steps, workload.snapshot_every,
                                    runs[-1]["final"])
    if reference is None:
        return None, problems
    dev, ref_problems = compare_reference(runs, study_errors, reference)
    return dev, problems + ref_problems


def reference_entry(result: dict, out_dir: str, workload) -> dict:
    """What ``compare_reference`` needs from a unit, for ``make_reference.py``."""
    entry = {"finals": [run["final"]["fingerprint"] for run in result["runs"]],
             "study_errors": None}
    if workload.command == "study-space":
        entry["study_errors"] = read_study_csv(os.path.join(out_dir, "spatial_orders.csv"))[0]
    return entry
