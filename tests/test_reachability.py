"""Every module under ``src/repro`` is reached from an entry point.

The entry points are the ``[project.scripts]`` modules, the experiments
package ``__init__`` (importing it registers every experiment id) and
``examples/*.py``.  A module is reached when a reached file imports it,
at module level or inside a function.  An import through a package
``__init__`` follows the re-export to the module that defines the name,
so ``from repro.analysis import delay_variation`` reaches
``analysis/variation.py``; the other imports an ``__init__`` makes do
not count, or every exported module would be reached by the package
alone.  Code that only its own tests import fails this check.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path
           for path in sorted((SRC / "repro").rglob("*.py"))}
PACKAGES = {name for name, path in MODULES.items()
            if path.name == "__init__.py"}


def _imports(path, name):
    """(absolute module, imported names) of every import in ``path``."""
    package = name.split(".") if path.name == "__init__.py" \
        else name.split(".")[:-1]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package[:len(package) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            yield module, tuple(alias.name for alias in node.names)


def _targets(module, names):
    """Defining modules of ``from module import names``."""
    if module in MODULES and module not in PACKAGES:
        yield module
    if module not in PACKAGES:
        return
    for name in names:
        submodule = f"{module}.{name}"
        if submodule in MODULES:
            if submodule not in PACKAGES:
                yield submodule
            continue
        for source, bound in _imports(MODULES[module], module):
            if name in bound:
                yield from _targets(source, (name,))


def _entry_points():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    modules = re.findall(r'=\s*"([\w.]+):\w+"', section)
    entries = [(MODULES[module], module) for module in modules]
    entries.append((MODULES["repro.experiments"], "repro.experiments"))
    entries.extend((path, path.stem)
                   for path in sorted((ROOT / "examples").glob("*.py")))
    return entries


def test_every_module_is_reached_from_an_entry_point():
    entries = _entry_points()
    assert len(entries) > 7       # six scripts, experiments, examples
    reached = {name for _, name in entries}
    stack = list(entries)
    while stack:
        path, name = stack.pop()
        for module, names in _imports(path, name):
            for target in _targets(module, names):
                if target not in reached:
                    reached.add(target)
                    stack.append((MODULES[target], target))
    unreached = sorted(name for name in MODULES
                       if name not in PACKAGES and name not in reached)
    assert unreached == [], (
        f"no CLI, experiment or example reaches {unreached}: delete "
        f"them, or use them from an entry point")
