"""The README's library quick start runs and prints what its comments say."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import raggio_kit

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The first Python block after the "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_its_comments():
    code = _quick_start()
    # each print line ends in a comment that gives the line it prints
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    expected = [line.split("#", 1)[1].strip() for line in prints]
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_module_qualified_names_resolve():
    # a backticked `module.name` in the README must still name something in that module
    modules = [info.name for info in pkgutil.iter_modules(raggio_kit.__path__)]
    pattern = rf"`({'|'.join(modules)})\.([A-Za-z_]\w*)`"
    names = re.findall(pattern, README.read_text(encoding="utf-8"))
    assert names
    stale = [f"{mod}.{attr}" for mod, attr in names
             if not hasattr(importlib.import_module(f"raggio_kit.{mod}"), attr)]
    assert stale == []
