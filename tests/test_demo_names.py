"""The demos and the README's library example use only names driftfit has.

No other test runs them, so a renamed or deleted function would break them
without a failing test; this one parses them instead of running them.
"""
import ast
import importlib
import re
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("demos/*.py")) + [ROOT / "README.md"]


def _python_source(path):
    text = path.read_text()
    if path.suffix == ".md":
        return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return text


def driftfit_names(source):
    """(module, name) for every `import driftfit as a` / `from driftfit.x import
    b` binding and every `a.attr` read off a bound driftfit module."""
    tree = ast.parse(source)
    bound, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "driftfit":
                    bound[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "driftfit"):
            for alias in node.names:
                used.append((node.module, alias.name))
                bound[alias.asname or alias.name] = getattr(
                    importlib.import_module(node.module), alias.name, None)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and isinstance(bound.get(node.value.id), types.ModuleType)):
            used.append((bound[node.value.id].__name__, node.attr))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_demo_names_exist(path):
    used = driftfit_names(_python_source(path))
    assert used, "%s uses no driftfit name; is the parse still right?" % path.name
    missing = [(module, name) for module, name in used
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
