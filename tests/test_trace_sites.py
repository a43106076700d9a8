"""The benchmark's traced runs wrap rxd functions at their call sites.

``perfbench/child.py`` replaces each listed ``(owner, attribute)`` by a
timing wrapper; a site that no longer resolves is reported as
``# not traced (missing)`` and its layer metrics silently read 0.  This
checks every site without running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from rxd import cli, diffusion, grid, splitting, study

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
