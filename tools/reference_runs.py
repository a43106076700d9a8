"""Run the eight byte-identity reference runs and keep everything they produce.

    python tools/reference_runs.py OUT_DIR

Each run goes through ``python -m rxd.cli`` with ``PYTHONPATH`` set to this
tree's ``src``.  Run ``NAME`` writes its output files to ``OUT_DIR/NAME/out``
and its stdout, stderr and exit code to ``OUT_DIR/NAME/stdout``,
``stderr`` and ``exit_code``.  Two trees made from two checkouts are then
compared with one ``diff -r``.  OUT_DIR must not exist yet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _sets(*items: str) -> list[str]:
    return [arg for item in items for arg in ("--set", item)]


def _cosine(amplitude: float) -> str:
    return f'{{"profile":"cosine","amplitude":{amplitude}}}'


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
        done = subprocess.run([sys.executable, "-m", "rxd.cli", *args, "--out", "out"],
                              cwd=run_dir, env=env, capture_output=True)
        (run_dir / "stdout").write_bytes(done.stdout)
        (run_dir / "stderr").write_bytes(done.stderr)
        (run_dir / "exit_code").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
