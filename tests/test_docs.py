"""The README's code runs as written and prints what its comments say, the
package exports every name it lists, and every code name it mentions
exists."""

import importlib
import pkgutil
import re
import sys
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


MODULES = {info.name: importlib.import_module(f"pbbem.{info.name}")
           for info in pkgutil.iter_modules(pbbem.__path__)}
FILE_SUFFIXES = (".py", ".toml", ".md", ".json", ".csv")


def _resolves(dotted: str) -> bool:
    """Whether a.b.c names something in the package: a is pbbem, one of its
    modules or a name one of them defines, and each later part an
    attribute or dataclass field of what precedes it."""
    head, *rest = dotted.split(".")
    if head == "pbbem" or head in MODULES:
        roots = [MODULES.get(head, pbbem)]
    else:
        roots = [getattr(m, head) for m in MODULES.values() if hasattr(m, head)]
    for obj in roots:
        for part in rest:
            if part not in getattr(obj, "__dataclass_fields__", ()) and not hasattr(obj, part):
                break
            obj = getattr(obj, part, None)
        else:
            return True
    return False


def test_every_code_name_in_the_readme_resolves():
    """Each backticked dotted name (`solver.TILE`, `kernels.kernel_sums`)
    and bare private name (`_sweep_plan`) in the README names something
    in the package, so no paragraph describes code that is gone. File
    names and the standard library's names (`os.fork`) are not checked."""
    spans = set(re.findall(r"`([^`\n]+)`", README.read_text()))
    dotted = [s for s in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", s)
              and not s.endswith(FILE_SUFFIXES) and s.split(".")[0] not in sys.stdlib_module_names]
    private = [s for s in spans if re.fullmatch(r"_\w+", s)]
    assert dotted and private
    assert sorted(s for s in dotted + private if not _resolves(s)) == []
