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
