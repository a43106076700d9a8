"""Text snapshot format for fields ("rxd-field v1").

Layout::

    rxd-field v1
    dim=<d> n=<N> lower=<x0,...> upper=<x1,...> t=<time>
    <value>          # N^dim lines, row-major with x fastest, %.17g

All floats are written with 17 significant digits so a write/read round
trip is bit-exact; :func:`format_float` is that formatter, shared by every
text output of the package.
"""

from __future__ import annotations

import os
from typing import TextIO, Union

import numpy as np

from .grid import Field, Grid

MAGIC = "rxd-field v1"


def format_float(x: float) -> str:
    """A double as text with 17 significant digits, which reads back bit-exactly."""
    return format(float(x), ".17g")


def write_field(f: Field, dest: Union[str, os.PathLike, TextIO], time: float = 0.0) -> None:
    """Write a field snapshot; ``dest`` is a path or an open text file."""
    if hasattr(dest, "write"):
        _write(f, dest, time)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            _write(f, fh, time)


def _write(f: Field, fh: TextIO, time: float) -> None:
    g = f.grid
    lower = ",".join(format_float(x) for x in g.lower)
    upper = ",".join(format_float(x) for x in g.upper)
    fh.write(f"{MAGIC}\n")
    fh.write(f"dim={g.dim} n={g.n} lower={lower} upper={upper} t={format_float(time)}\n")
    fh.write("\n".join(format_float(v) for v in f.values.ravel()))
    fh.write("\n")


def read_field(src: Union[str, os.PathLike, TextIO]) -> tuple[Field, float]:
    """Read a snapshot, returning the field and the recorded time stamp."""
    if hasattr(src, "read"):
        return _read(src, "<stream>")
    with open(src, "r", encoding="ascii") as fh:
        return _read(fh, os.fspath(src))


def _read(fh: TextIO, name: str) -> tuple[Field, float]:
    magic = fh.readline().rstrip("\n")
    if magic != MAGIC:
        raise ValueError(f"{name}: not a {MAGIC!r} snapshot (first line {magic!r})")
    header = fh.readline().rstrip("\n")
    fields = {}
    for token in header.split():
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        dim = int(fields["dim"])
        n = int(fields["n"])
        lower = tuple(float(x) for x in fields["lower"].split(","))
        upper = tuple(float(x) for x in fields["upper"].split(","))
        time = float(fields["t"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{name}: malformed snapshot header {header!r}") from exc
    grid = Grid(dim, n, lower, upper)
    values = np.loadtxt(fh, dtype=float, ndmin=1)
    if values.size != grid.num_cells:
        raise ValueError(
            f"{name}: expected {grid.num_cells} values, found {values.size}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name}: snapshot contains non-finite values")
    return Field(grid, values), time
