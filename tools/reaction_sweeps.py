"""Worst-case sweeps of the reaction solve: iterations and time per sweep.

    python tools/reaction_sweeps.py [SRC]

Imports ``rxd`` from SRC (default: this tree's ``src``), so that two
checkouts can be compared on one host.  Each sweep solves its cells with
``reaction._solve_field`` at the default tolerance, warnings as errors, and
an iteration cap of ten times the default, so that cells which would hit
the default cap are counted instead of raising.  For each sweep it prints
the most iterations of any cell, the cells that take more than 10, the
cells that reach the default cap, the time of the ``_solve_field`` call and
the SHA-256 digest of its R, iteration counts and max |G| (as bytes), so
that two checkouts can be compared bit for bit.  A sweep that warns or
fails prints the exception in place of its counts.  The exit code is 1 if
any sweep warns, fails or has a cell at the default cap, else 0.  The
sweeps are:

- ``unit dt=...``: 200,000 cells with a, b, c log-uniform in [1e-14, 1e3],
  unit parameters, at six step sizes;
- ``wide rates=...``: 50,000 cells each with a, b, c log-uniform in
  [1e-300, 1e6] and dt in [1e-320, 1e6], for three detailed-balance rate
  sets (a_inf, b_inf, c_inf, k+, k-);
- ``huge``: 200,000 cells with a, b, c log-uniform in [1e-300, 1e300] and
  dt in [1e-320, 1e-3], unit parameters;
- ``top``: 50,000 cells with a, b, c log-uniform in [1e300, 5e307] and dt
  in [1e-320, 1], unit parameters.  a + c and b + c stay below the largest
  double, so every step is representable, while the polish's G * m can
  overflow.
"""

from __future__ import annotations

import hashlib
import sys
import time
import warnings
from pathlib import Path

import numpy as np

RATES = [(1.0, 1.0, 1.0, 1.0, 1.0), (2.0, 0.5, 1.5, 1.5, 1.0), (1.0, 1.0, 1.0, 2.0, 2.0)]


def _log_uniform(rng, low, high, shape):
    return 10.0 ** rng.uniform(np.log10(low), np.log10(high), shape)


def sweeps():
    """(name, a, b, c, dt, (a_inf, b_inf, c_inf, k+, k-)) for each sweep, seeded."""
    rng = np.random.default_rng(7)
    a, b, c = _log_uniform(rng, 1e-14, 1e3, (3, 200_000))
    for dt in (1e-305, 1e-100, 1e-8, 1e-3, 1.0, 1e3):
        yield f"unit dt={dt:g}", a, b, c, dt, RATES[0]
    for rates in RATES:
        a, b, c = _log_uniform(rng, 1e-300, 1e6, (3, 50_000))
        dt = _log_uniform(rng, 1e-320, 1e6, 50_000)
        yield f"wide rates={','.join(f'{v:g}' for v in rates)}", a, b, c, dt, rates
    a, b, c = _log_uniform(rng, 1e-300, 1e300, (3, 200_000))
    yield "huge", a, b, c, _log_uniform(rng, 1e-320, 1e-3, 200_000), RATES[0]
    a, b, c = _log_uniform(rng, 1e300, 5e307, (3, 50_000))
    yield "top", a, b, c, _log_uniform(rng, 1e-320, 1.0, 50_000), RATES[0]


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/reaction_sweeps.py [SRC]", file=sys.stderr)
        return 2
    sys.path.insert(0, argv[0] if argv else str(Path(__file__).resolve().parents[1] / "src"))
    from rxd import ModelParams
    from rxd.reaction import DEFAULT_MAX_ITER, DEFAULT_TOL, _solve_field

    print(f"{'sweep':<26} {'most':>5} {'> 10':>7} {'at cap':>7} {'ms':>8}  sha256")
    failed = False
    for name, a, b, c, dt, rates in sweeps():
        params = ModelParams(*rates)
        start = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r, iterations, max_residual = _solve_field(a, b, c, dt, params, DEFAULT_TOL,
                                                           10 * DEFAULT_MAX_ITER)
        except (ArithmeticError, RuntimeError, ValueError, Warning) as exc:
            print(f"{name:<26} {type(exc).__name__}: {exc}")
            failed = True
            continue
        ms = 1e3 * (time.perf_counter() - start)
        at_cap = np.count_nonzero(iterations >= DEFAULT_MAX_ITER)
        failed |= at_cap > 0
        digest = hashlib.sha256(r.tobytes() + iterations.tobytes()
                                + np.float64(max_residual).tobytes()).hexdigest()
        print(f"{name:<26} {iterations.max():>5} {np.count_nonzero(iterations > 10):>7} "
              f"{at_cap:>7} {ms:>8.0f}  {digest}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
