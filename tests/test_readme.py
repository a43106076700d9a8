"""Every ``python`` block of README.md runs as written, so a changed signature fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = README.read_text(encoding="utf-8")
# (first line number, source) of each block; the source is padded with
# newlines so that a traceback names the README's own line.
BLOCKS = [(_TEXT.count("\n", 0, m.start(1)) + 1, "\n" * _TEXT.count("\n", 0, m.start(1)) + m[1])
          for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.M | re.S)]


def test_readme_has_library_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", [source for _, source in BLOCKS],
                         ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
