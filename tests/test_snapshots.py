"""Round-trip and validation of the rxd-field v1 snapshot format."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxd import Field, Grid, read_field, write_field
from rxd.snapshots import _CHUNK, _READ_LINES, format_float


def reference_text(f, time=0.0):
    """The per-value writer the vectorised one replaced: one format_float per value."""
    g = f.grid
    lower = ",".join(format_float(x) for x in g.lower)
    upper = ",".join(format_float(x) for x in g.upper)
    return (f"rxd-field v1\ndim={g.dim} n={g.n} lower={lower} upper={upper} t={format_float(time)}\n"
            + "\n".join(format_float(v) for v in f.values.ravel()) + "\n")


def written_text(f, time=0.0):
    buf = io.StringIO()
    write_field(f, buf, time=time)
    return buf.getvalue()


def line_field(values):
    values = np.asarray(values, dtype=float)
    return Field(Grid(1, values.size, (0.0,), (1.0,)), values)


def exact_ties(rng, per_scale=200):
    """Doubles m / 2^s (m odd) with exactly 18 significant digits, the last a 5:
    halfway between two 17-digit decimals."""
    out = []
    for s in range(2, 22):
        lo = 10.0 ** (17 - s)
        hi = min(10.0 ** (18 - s), 2.0 ** (53 - s))
        m = rng.integers(int(lo * 2**s) // 2, int(hi * 2**s) // 2, per_scale) * 2 + 1
        out.append(m / 2.0**s)
    return np.concatenate(out)


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    g = Grid(2, 5, (-1.0, -1.0), (1.0, 1.0))
    f = Field(g, rng.normal(size=g.shape) * 1e3)
    path = tmp_path / "f.txt"
    write_field(f, path, time=0.12345678901234567)
    back, t = read_field(path)
    assert back.grid == g
    assert t == 0.12345678901234567
    np.testing.assert_array_equal(back.values, f.values)


def test_header_layout():
    g = Grid(1, 3, (0.0,), (1.0,))
    f = Field(g, [1.0, 2.0, 3.0])
    buf = io.StringIO()
    write_field(f, buf, time=0.5)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "rxd-field v1"
    assert lines[1] == "dim=1 n=3 lower=0 upper=1 t=0.5"
    assert lines[2:] == ["1", "2", "3"]


def test_row_major_x_fastest():
    g = Grid(2, 2, (0.0, 0.0), (2.0, 2.0))
    # values[j, i]: x varies along the second axis
    f = Field(g, np.array([[1.0, 2.0], [3.0, 4.0]]))
    buf = io.StringIO()
    write_field(f, buf)
    assert buf.getvalue().splitlines()[2:] == ["1", "2", "3", "4"]


def test_rejects_bad_magic():
    with pytest.raises(ValueError, match="rxd-field"):
        read_field(io.StringIO("something else\n"))


def test_rejects_wrong_count(tmp_path):
    g = Grid(1, 4, (0.0,), (1.0,))
    path = tmp_path / "f.txt"
    write_field(Field(g, np.arange(4.0)), path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(ValueError, match="expected 4 values"):
        read_field(path)


def test_rejects_nonfinite(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("rxd-field v1\ndim=1 n=2 lower=0 upper=1 t=0\n1.0\nnan\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_field(path)


def test_rejects_malformed_header():
    with pytest.raises(ValueError, match="malformed"):
        read_field(io.StringIO("rxd-field v1\ndim=two n=3\n"))


def test_writer_bytes_match_format_float():
    rng = np.random.default_rng(7)
    powers = 10.0 ** np.arange(-5, 18)
    odd = rng.integers(0, 2**40, 2000) * 2 + 1
    inputs = [
        np.exp(rng.uniform(np.log(1e-6), np.log(1e17), 10**5)),
        exact_ties(rng),
        np.concatenate([(odd + 0.5) / 10.0**j for j in range(18)]),
        np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]),
        [1e-4, 9.999999999999999e-5, 1e16, np.nextafter(1e16, 0.0), 0.0, -0.0, -1.0, -0.5,
         -1e-300, 1e-300, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         np.nan, np.inf, -np.inf, 2.0**53, 2.0**53 + 2, 0.1, 0.01, 0.001, 1.0, 10.0],
    ]
    for n in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7):
        inputs.append(rng.uniform(0.0, 2.0, n))
    # m * 10^(e - d + 1) for m of d = 1..17 significant digits and every
    # decimal exponent e of the fast range: trailing zeros in every group
    # and on either side of the point
    scaled = []
    for e in range(-4, 16):
        for d in range(1, 18):
            m = rng.integers(10 ** (d - 1), 10 ** d, 20).astype(float)
            scaled.append(m * 10.0 ** (e - d + 1) if e >= d - 1 else m / 10.0 ** (d - 1 - e))
    inputs.append(np.concatenate(scaled))
    # integers with zeros inside the integer part
    inputs += [[120.0, 100000.0, 1.2e15, 1e15, 1010.0], np.arange(1, 5000) * 1000.0]
    # whole chunks on the fast path only and on the per-value path only
    fast = np.minimum(np.exp(rng.uniform(np.log(1e-4), np.log(1e16), _CHUNK)), 9e15)
    slow = np.exp(rng.uniform(np.log(2e16), 700.0, _CHUNK))
    slow[::2] = 1.0 / slow[::2]
    slow[::3] *= -1.0
    assert np.all((fast >= 1e-4) & (fast < 1e16)) and not np.any((slow >= 1e-4) & (slow < 1e16))
    inputs += [fast, slow]
    for values in inputs:
        f = line_field(values)
        assert written_text(f, time=0.25) == reference_text(f, time=0.25)


@settings(max_examples=300, deadline=None)
@given(st.floats(), st.lists(st.floats(), min_size=1, max_size=50),
       st.lists(st.floats(min_value=1e-4, max_value=1e16, exclude_max=True), min_size=1, max_size=50))
def test_writer_bytes_match_format_float_any_double(x, mixed, fast):
    for values in ([x], mixed, fast + mixed):
        f = line_field(values)
        assert written_text(f) == reference_text(f)


def test_near_singular_round_trip(tmp_path):
    # tiny concentrations take the per-value path, in the same chunk as
    # ordinary ones
    rng = np.random.default_rng(3)
    g = Grid(2, 40, (-1.0, -1.0), (1.0, 1.0))
    values = rng.uniform(0.01, 1.02, g.shape)
    values[::3] *= 1e-12
    values[1::7, ::2] = 1e-300 * rng.uniform(0.5, 2.0, values[1::7, ::2].shape)
    values[5, 5] = 5e-324
    f = Field(g, values)
    path = tmp_path / "f.txt"
    write_field(f, path, time=1.5)
    assert path.read_text(encoding="ascii") == reference_text(f, time=1.5)
    back, t = read_field(path)
    assert t == 1.5
    assert back.values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("n", [_READ_LINES - 1, _READ_LINES, _READ_LINES + 1, 3 * _READ_LINES + 5])
def test_read_across_chunks_is_bitwise_and_names_the_line_of_a_bad_value(tmp_path, n):
    rng = np.random.default_rng(n)
    f = line_field(np.exp(rng.uniform(-30.0, 30.0, n)))
    path = tmp_path / "f.txt"
    write_field(f, path)
    back, _ = read_field(path)
    assert back.values.tobytes() == f.values.tobytes()
    assert back.values.tobytes() == np.loadtxt(path, skiprows=2).tobytes()
    for cell, token in ((n - 1, "abc"), (n // 2, ""), (n - 1, "inf")):
        lines = path.read_text().splitlines()
        lines[2 + cell] = token
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}:{cell + 3}: ")):
            read_field(bad)
