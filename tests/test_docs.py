"""The README's code runs as written and prints what its comments say, and
the package exports every name it lists."""

import re
from pathlib import Path

import pytest

import pbbem

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_python_block(text: str, heading: str) -> str:
    """The first ```python block after the line `heading`."""
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs_and_prints_its_energy(capsys):
    block = fenced_python_block(README.read_text(), "## Library use")
    prints = [ln for ln in block.splitlines() if ln.startswith("print(")]
    (k,) = [i for i, ln in enumerate(prints) if ln.startswith("print(solvation_energy(")]
    claimed = float(re.search(r"#\s*(-?\d+\.\d+)", prints[k]).group(1))
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(prints)
    assert float(printed[k]) == pytest.approx(claimed, abs=1e-4)
    (c,) = [i for i, ln in enumerate(prints) if ln.startswith("print(solution.iterations,")]
    assert prints[c].endswith("# matvecs = iterations")
    iterations, matvecs = (int(word) for word in printed[c].split())
    assert iterations == matvecs


def test_every_listed_name_resolves_on_the_package():
    assert [name for name in pbbem.__all__ if not hasattr(pbbem, name)] == []
