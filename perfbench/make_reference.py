"""Write the stored reference results, one file per workload, from the solver in ``src/``.

    python3 perfbench/make_reference.py [--workloads NAME,NAME]

The references in ``reference/`` were made by the solver at the commit
that introduced this benchmark.  Later solver changes are judged against
them; rerun this only to add a workload, never to absorb a changed result.
Every run must pass the invariant checks before it is stored.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run
from checks import reference_entry, verify_unit
from workloads import VARIANTS, WORKLOADS, shift_of


def reference_for(workload) -> dict:
    variants = {}
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    for variant in range(VARIANTS):
        shift = shift_of(variant)
        work = tempfile.mkdtemp(prefix=f"ref-{workload.name}-", dir=run.WORK_ROOT)
        try:
            inputs = run.prepare_inputs(workload, shift, work)
            unit_dir = os.path.join(work, "unit")
            result = run.run_child(workload, shift, inputs, unit_dir, "full", False,
                                   run.HARD_LIMIT_S)
            if "error" in result:
                raise SystemExit(f"{workload.name} variant {variant}: {result['error']}")
            _, problems = verify_unit(workload, result["out_dir"], result, None)
            if problems:
                raise SystemExit(f"{workload.name} variant {variant}: {problems}")
            variants[str(variant)] = reference_entry(result, result["out_dir"], workload)
            print(f"{workload.name} variant {variant} shift {shift}: stored", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload.name, "variants": variants}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for name in args.workloads.split(","):
        data = reference_for(WORKLOADS[name])
        with open(os.path.join(run.REFERENCE_DIR, f"{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(data, fh, indent=0)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
