"""The package's module layering, as the README's module list states it."""

import ast
import re
from pathlib import Path

import citemetrics

PACKAGE = Path(citemetrics.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
INTRO = "each importing only modules listed above it:"


def _layers():
    """Module names on each line of the README's module list, top line first."""
    after = README.read_text(encoding="utf-8").split(INTRO, 1)[1]
    block = after.split("```text\n", 1)[1].split("```", 1)[0]
    return [re.findall(r"(\w+)\.py", line) for line in block.splitlines()]


def _package_imports(module):
    """Names of the package's modules that `module` imports, relatively or not."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = ("citemetrics." if node.level else "") + (node.module or "")
            if path.split(".")[0] != "citemetrics":
                continue
            inner = path.split(".")[1:]
            found.update(inner[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "citemetrics":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_readme_lists_every_module():
    listed = [name for layer in _layers() for name in layer]
    assert len(listed) == len(set(listed))
    on_disk = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert set(listed) == on_disk


def test_each_module_imports_only_modules_listed_above_it():
    above = set()
    for layer in _layers():
        for module in layer:
            assert _package_imports(module) <= above, (module, _package_imports(module) - above)
        above.update(layer)


def test_parse_imports_nothing_from_the_package():
    # Parsing checks syntax only; normalize_profile judges the counts.
    assert _package_imports("parse") == set()
