"""The benchmark's traced runs wrap rxd functions at their call sites.

``perfbench/child.py`` replaces each listed ``(owner, attribute)`` by a
timing wrapper; a site that no longer resolves is reported as
``# not traced (missing)`` and its layer metrics silently read 0.  This
checks every site without running the benchmark.
"""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from rxd import (Grid, State, cli, diffusion, grid, make_initial_condition, splitting, study,
                 write_field)

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    modules = {"cli": cli, "diffusion": diffusion, "grid": grid,
               "splitting": splitting, "study": study}
    return child.traced_functions(modules)


SITES = _traced_functions()


@pytest.mark.parametrize(
    "owner,attr", [(owner, attr) for owner, attr, _, _ in SITES],
    ids=[f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _, _ in SITES],
)
def test_trace_site_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))


def test_run_writes_every_snapshot_through_cli_write_field(tmp_path, monkeypatch):
    # snapshots.write_ms times cli.write_field and reads args[1] as the path
    calls = []
    write_field = cli.write_field

    def counting(*args, **kwargs):
        calls.append(args)
        return write_field(*args, **kwargs)

    monkeypatch.setattr(cli, "write_field", counting)
    steps = 2
    code = cli.main([
        "run", "--out", str(tmp_path),
        "--set", "grid.n=8", "--set", "time.dt=0.1", "--set", f"time.t_final={0.1 * steps}",
        "--set", "output.snapshot_every=1",
    ])
    assert code == 0
    assert len(calls) == 3 * (steps + 1)
    for args in calls:
        assert isinstance(args[1], str) and Path(args[1]).is_file()


def test_paper_2d_run_starts_from_cli_make_initial_condition(tmp_path, monkeypatch):
    # perfbench/child.py seeds every benchmark run by replacing
    # cli.make_initial_condition, so a paper-2d run must look it up at call time.
    monkeypatch.setattr(cli, "make_initial_condition",
                        lambda g: State.uniform(g, 0.25, 0.5, 0.75))
    code = cli.main([
        "run", "--out", str(tmp_path),
        "--set", "grid.n=8", "--set", "time.dt=0.1", "--set", "time.t_final=0.2",
    ])
    assert code == 0
    with open(tmp_path / "diagnostics.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    assert first["step"] == "0"
    assert [float(first[f"min_{name}"]) for name in "abc"] == [0.25, 0.5, 0.75]


def test_info_callbacks_read_real_outputs(tmp_path, monkeypatch):
    # A callback that no longer fits its site's output fails only in a
    # traced benchmark run; run each on what its site really returns.
    infos = {}
    for owner, attr, _, info in SITES:
        if info is None:
            continue

        def with_info(*args, _fn=getattr(owner, attr), _attr=attr, _info=info, **kwargs):
            out = _fn(*args, **kwargs)
            infos.setdefault(_attr, []).append(_info(args, kwargs, out))
            return out

        monkeypatch.setattr(owner, attr, with_info)
    n, steps = 8, 2
    initial = {"kind": "snapshot"}
    for name, f in make_initial_condition(Grid.box(2, n, -1.0, 1.0)).species():
        initial[name] = str(tmp_path / f"init_{name}.txt")
        write_field(f, initial[name], time=0.0)
    code = cli.main([
        "run", "--out", str(tmp_path / "out"),
        "--set", f"grid.n={n}", "--set", "time.dt=0.1", "--set", f"time.t_final={0.1 * steps}",
        "--set", "output.snapshot_every=1", "--set", f"initial={json.dumps(initial)}",
    ])
    assert code == 0
    assert set(infos) == {attr for _, attr, _, info in SITES if info is not None}
    assert all(v is not None for values in infos.values() for v in values)
    assert len(infos["step_reaction"]) == steps
    for total, most, cells in infos["step_reaction"]:
        assert cells == n * n and 0 <= most <= total
    assert [len(step) for step in infos["step_diffusion"]] == [3] * steps
    assert all(size > 0 for size in infos["write_field"] + infos["read_field"])


@pytest.mark.parametrize("command,entry,settings,runs", [
    ("study-time", "temporal_order",
     ["study_time.n=8", "study_time.dts=[0.1,0.05]", "study_time.ref_dt=0.025",
      "study_time.t_final=0.1"], 3),
    ("study-space", "spatial_cauchy_order",
     ["study_space.hs=[0.5,0.25,0.125]", "study_space.t_final=0.25"], 3),
])
def test_study_commands_enter_through_their_traced_sites(tmp_path, monkeypatch, command,
                                                        entry, settings, runs):
    # study.solve_share divides the run_simulation spans under the study
    # entry point by that entry's span, so each is looked up at call time.
    calls = {entry: 0, "run_simulation": 0, "compare_fields": 0}
    for owner, attr in ((cli, entry), (study, "run_simulation"), (study, "compare_fields")):
        def counting(*args, _fn=getattr(owner, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    argv = [command, "--out", str(tmp_path)]
    for item in settings:
        argv += ["--set", item]
    assert cli.main(argv) == 0
    assert calls == {entry: 1, "run_simulation": runs, "compare_fields": 3 * (runs - 1)}
