"""Text snapshot format for fields ("rxd-field v1").

Layout::

    rxd-field v1
    dim=<d> n=<N> lower=<x0,...> upper=<x1,...> t=<time>
    <value>          # N^dim lines, row-major with x fastest, %.17g

All floats are written with 17 significant digits so a write/read round
trip is bit-exact; :func:`format_float` is that formatter, shared by every
text output of the package.  The value lines are exactly the bytes of
:func:`format_float`, but values in [1e-4, 1e16) are formatted a chunk at a
time with numpy (see :func:`_format_lines`): each value becomes a 40-byte
row of digits from lookup tables, NUL wherever the text has no byte, and
one ``bytes.translate`` pass deletes the NULs.  Every other value (smaller,
larger, negative, zero, nan, inf) goes through :func:`format_float` one by
one into its own row.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from itertools import islice
from typing import Iterable, TextIO, Union

import numpy as np

from .grid import Field, Grid

MAGIC = "rxd-field v1"
_HEADER_KEYS = ("dim", "n", "lower", "upper", "t")

# Values formatted per numpy pass; bounds the NUL-padded rows and their bytes to 160 kB each.
_CHUNK = 4096
_READ_LINES = 1024  # value lines parsed per numpy pass, ~70 kB of strings

# A double times 10^p is exactly a Dekker pair (product + error) when 10^p
# is itself an exact double, which holds for p <= 22.
_POW10 = np.array([float(10**p) for p in range(23)])


def _split(a):
    """Veltkamp split: a == hi + lo exactly, each half fitting in 26 bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)

# A group of four decimal digits as the 8 bytes "d\0d\0d\0d\0", viewed as one
# uint64; entry 10000 + g has the trailing zero digits of g as NUL too (the
# choice where every later group is 0000).  uint8 keeps the temporaries small.
_digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, 10000).T
_GROUP_BYTES = np.zeros((2, 10000, 4, 2), np.uint8)
_GROUP_BYTES[:, :, :, 0] = _digits + ord("0")
_GROUP_BYTES[1, :, :, 0] *= ~np.logical_and.accumulate(_digits[:, ::-1] == 0, axis=1)[:, ::-1]
_GROUP_BYTES = _GROUP_BYTES.reshape(20000, 8).view(np.uint64).ravel()
del _digits

# One value is laid out in 40 bytes: a 5-byte prefix, the leading digit, two
# pad bytes, then the 16 other digits each followed by a pad byte.  Every
# byte outside the text is NUL, and one translate pass deletes them.
_WIDTH = 40
_DIGIT_COLUMNS = np.array([5, *range(8, 39, 2)])
_LEAD = (np.arange(10, dtype=np.uint64) + ord("0")) << np.uint64(8 * _DIGIT_COLUMNS[0])


def _row(k: int, fraction: bool) -> np.ndarray:
    """The bytes OR-ed into a row whose 17 digits d0..d16 have exponent k in [-4, 15].

    That is "0." and -k-1 zeros when k < 0; else "0" on the columns of the
    integer digits d0..dk (so that zeros among them are kept) and "." after
    dk when a fraction is left; and the final "\\n".
    """
    row = np.zeros(_WIDTH, np.uint8)
    if k < 0:
        row[:1 - k] = np.frombuffer(b"0.000", np.uint8)[:1 - k]
    else:
        row[_DIGIT_COLUMNS[:k + 1]] = ord("0")
        row[_DIGIT_COLUMNS[k] + 1] = ord(".") * fraction
    row[-1] = ord("\n")
    return row


# _ROWS[2 * (k + 4) + fraction] is _row(k, fraction), as 5 uint64 words.
_ROWS = np.array([_row(k, f) for k in range(-4, 16) for f in (False, True)]).view(np.uint64)


def format_float(x: float) -> str:
    """A double as text with 17 significant digits, which reads back bit-exactly."""
    return format(float(x), ".17g")


def _opened(file: Union[str, os.PathLike, TextIO], mode: str):
    """An open text file as it is (left open), else the path opened in ``mode``.

    A path is read as ASCII with every other byte mapped to a lone surrogate,
    which no number or header key parses, so the reader refuses it by line.
    """
    if hasattr(file, "read" if mode == "r" else "write"):
        return nullcontext(file)
    return open(file, mode, encoding="ascii", errors="surrogateescape")


def write_csv(dest: Union[str, os.PathLike, TextIO], header: str,
              rows: Iterable[Iterable[str]]) -> None:
    """Write ``header``, then each row's cells comma-joined, to a path or open text file."""
    with _opened(dest, "w") as fh:
        fh.write(header + "\n")
        for cells in rows:
            fh.write(",".join(cells) + "\n")


def write_field(f: Field, dest: Union[str, os.PathLike, TextIO], time: float = 0.0) -> None:
    """Write a field snapshot; ``dest`` is a path or an open text file."""
    g = f.grid
    lower = ",".join(format_float(x) for x in g.lower)
    upper = ",".join(format_float(x) for x in g.upper)
    values = f.values.ravel()
    with _opened(dest, "w") as fh:
        fh.write(f"{MAGIC}\n")
        fh.write(f"dim={g.dim} n={g.n} lower={lower} upper={upper} t={format_float(time)}\n")
        for start in range(0, values.size, _CHUNK):
            fh.write(_format_lines(values[start:start + _CHUNK]))


def _scaled_digits(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x * 10^(16 - k) rounded half-even to an integer, for 0 <= 16 - k <= 22.

    Dekker's TwoProduct gives the product exactly as prod + err.  Where
    prod >= 2^53 it is an even integer, so rounding err alone rounds the sum;
    a smaller prod is only reached with k one too large, and the result then
    falls below 10^16, which the caller corrects.
    """
    p = 16 - k
    prod = x * _POW10[p]
    x_hi, x_lo = _split(x)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    err = ((x_hi * b_hi - prod) + x_hi * b_lo + x_lo * b_hi) + x_lo * b_lo
    return prod.astype(np.int64) + np.rint(err).astype(np.int64)


def _format_lines(x: np.ndarray) -> str:
    """``format_float(v) + "\\n"`` for every v of the 1-D float64 array x, joined."""
    fast = (x >= 1e-4) & (x < 1e16)
    xs = np.where(fast, x, 1.0)
    k = np.floor(np.log10(xs)).astype(np.int64)
    digits = _scaled_digits(xs, k)
    # log10 may be one off next to a power of ten: correct k by one where
    # the rounded 17-digit integer falls outside [10^16, 10^17)
    off = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
    wrong = np.flatnonzero(off)
    if wrong.size:
        k[wrong] += off[wrong]
        digits[wrong] = _scaled_digits(xs[wrong], k[wrong])

    # d0 and four 4-digit groups: one int64 division, the rest in uint32
    high = digits // 10**8
    low = (digits - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    lead = high // 10**8
    high -= lead * 10**8
    g1, g3 = high // 10**4, low // 10**4
    groups = (g1, high - g1 * 10**4, g3, low - g3 * 10**4)
    # A value has fraction digits exactly where it is not an integer: a
    # non-integer x is below 2^52, so the integers next to it are doubles,
    # and none of them shares the 17-digit text of x.
    words = _ROWS.take(2 * (k + 4) + (np.floor(xs) != xs), axis=0)
    words[:, 0] |= _LEAD.take(lead)
    # the offset of the trailing-zero half while every later group is 0000
    trailing = np.full(x.size, 10000, np.uint32)
    for j in range(4, 0, -1):
        group = groups[j - 1]
        words[:, j] |= _GROUP_BYTES.take(group + trailing)
        trailing *= group == 0
    for i in np.flatnonzero(~fast):
        line = (format_float(x[i]) + "\n").encode("ascii")
        words[i] = np.frombuffer(line.ljust(_WIDTH, b"\0"), np.uint64)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def read_field(src: Union[str, os.PathLike, TextIO]) -> tuple[Field, float]:
    """Read a snapshot, returning the field and the recorded time stamp.

    The header holds each of dim, n, lower, upper and t once, t finite, and
    each of the N^dim value lines one finite number: blank lines, comments
    and anything else are refused with the file name and 1-based line.
    """
    name = "<stream>" if hasattr(src, "read") else os.fspath(src)
    with _opened(src, "r") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != MAGIC:
            raise ValueError(f"{name}:1: not a {MAGIC!r} snapshot (first line {magic!r})")
        header = fh.readline().rstrip("\n")
        pairs = [token.partition("=")[::2] for token in header.split()]
        fields = dict(pairs)
        try:
            if sorted(key for key, _ in pairs) != sorted(_HEADER_KEYS):
                raise ValueError(f"needs the keys {' '.join(_HEADER_KEYS)} once each")
            lower = tuple(float(x) for x in fields["lower"].split(","))
            upper = tuple(float(x) for x in fields["upper"].split(","))
            grid = Grid(int(fields["dim"]), int(fields["n"]), lower, upper)
            time = float(fields["t"])
            if not math.isfinite(time):
                raise ValueError("non-finite time stamp")
        except ValueError as exc:
            raise ValueError(f"{name}:2: malformed snapshot header {header!r} ({exc})") from None
        chunks = []
        while lines := list(islice(fh, _READ_LINES)):
            try:
                chunks.append(np.array(lines, dtype=float))
            except ValueError:
                for lineno, line in enumerate(lines, start=3 + sum(map(len, chunks))):
                    try:
                        float(line)
                    except ValueError:
                        raise ValueError(f"{name}:{lineno}: expected one value per line, "
                                         f"found {line.rstrip()!r}") from None
                raise
    values = np.concatenate([np.empty(0), *chunks])
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{name}:{bad[0] + 3}: non-finite value {float(values[bad[0]])!r}")
    if values.size != grid.num_cells:
        raise ValueError(f"{name}:{min(values.size, grid.num_cells) + 3}: expected "
                         f"{grid.num_cells} values, found {values.size}")
    return Field(grid, values), time
