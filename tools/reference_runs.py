"""Run the ten byte-identity reference runs and keep everything they produce.

    python tools/reference_runs.py OUT_DIR

Each run goes through ``python -m rxd.cli`` with ``PYTHONPATH`` set to this
tree's ``src``.  Run ``NAME`` writes its output files to ``OUT_DIR/NAME/out``
and its stdout, stderr and exit code to ``OUT_DIR/NAME/stdout``,
``stderr`` and ``exit_code``.  The 1D and 3D runs start from snapshots that
this script writes to ``OUT_DIR/NAME/in`` from a closed form, as ``repr``
floats, so their inputs do not depend on the tree.  Two trees made from two
checkouts are then compared with one ``diff -r``.  OUT_DIR must not exist yet.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _sets(*items: str) -> list[str]:
    return [arg for item in items for arg in ("--set", item)]


def _cosine(amplitude: float) -> str:
    return f'{{"profile":"cosine","amplitude":{amplitude}}}'


def _write_inputs(run_dir: Path, dim: int, n: int) -> None:
    """Snapshots a, b, c at t = 0 on the n^dim cells of (-1, 1)^dim, x fastest."""
    centres = [-1.0 + (i + 0.5) * (2.0 / n) for i in range(n)]
    # product() varies its last entry fastest, so p[::-1] is (x, y, z)
    s = [sum(w * math.cos(math.pi * x + k)
             for k, (w, x) in enumerate(zip((0.5, 0.3, 0.2), p[::-1])))
         for p in itertools.product(centres, repeat=dim)]
    lower, upper = ",".join(["-1"] * dim), ",".join(["1"] * dim)
    header = f"rxd-field v1\ndim={dim} n={n} lower={lower} upper={upper} t=0\n"
    (run_dir / "in").mkdir()
    for name, (base, slope) in zip("abc", ((1.0, 0.5), (1.0, -0.5), (0.5, 0.25))):
        values = "".join(f"{base + slope * v!r}\n" for v in s)
        (run_dir / "in" / f"{name}.txt").write_text(header + values)


# (dim, n) of the runs that start from the inputs above
INPUTS = {"run-1d-cosine": (1, 256), "run-3d-cosine": (3, 12)}
_FROM_INPUTS = "initial=" + json.dumps({"kind": "snapshot",
                                        **{name: f"in/{name}.txt" for name in "abc"}})

RUNS = {
    "run-default": ["run"],
    "run-n32-snapshots": ["run", *_sets("grid.n=32", "output.snapshot_every=5")],
    # restarts from the run above's last snapshots (t = 0.2): reads them, starts at t0 != 0
    "run-n32-restart": ["run", *_sets("grid.n=32", "initial=" + json.dumps(
        {"kind": "snapshot",
         **{name: f"../run-n32-snapshots/out/field_{name}_step20.txt" for name in "abc"}}))],
    "run-cosine-d_b": ["run", *_sets("grid.n=64", f"diffusion.d_b={_cosine(0.9)}")],
    "study-space": ["study-space", *_sets("study_space.hs=[0.1,0.05,0.04]")],
    "study-time": ["study-time", *_sets("study_time.n=16")],
    "run-cg-n256": ["run", *_sets("grid.n=256", "time.t_final=0.05", "output.snapshot_every=5",
                                  f"diffusion.d_a={_cosine(0.9)}",
                                  f"diffusion.d_c={_cosine(0.5)}")],
    "run-odd-n63-cosine": ["run", *_sets("grid.n=63", f"diffusion.d_b={_cosine(0.9)}",
                                         "output.snapshot_every=5")],
    **{name: ["run", *_sets(f"grid.dim={dim}", f"grid.lower={[-1.0] * dim}",
                            f"grid.upper={[1.0] * dim}", f"grid.n={n}",
                            f"diffusion.d_b={_cosine(0.9)}", "output.snapshot_every=5",
                            _FROM_INPUTS)]
       for name, (dim, n) in INPUTS.items()},
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/reference_runs.py OUT_DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    if root.exists():
        print(f"{root} exists; give a directory that does not", file=sys.stderr)
        return 2
    root.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for name, args in RUNS.items():
        run_dir = root / name
        run_dir.mkdir()
        if name in INPUTS:
            _write_inputs(run_dir, *INPUTS[name])
        done = subprocess.run([sys.executable, "-m", "rxd.cli", *args, "--out", "out"],
                              cwd=run_dir, env=env, capture_output=True)
        (run_dir / "stdout").write_bytes(done.stdout)
        (run_dir / "stderr").write_bytes(done.stderr)
        (run_dir / "exit_code").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
