"""The package depends on NumPy and the standard library only, and the scenario
loader builds on the public names of the geometry layer alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "irslab"


def _imports(path: Path) -> list[tuple[int, str]]:
    """(relative level, module name) of every import statement in a source file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.extend((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.append((node.level, node.module or ""))
    return out


def test_package_imports_numpy_the_stdlib_and_itself_only():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for level, name in _imports(path):
            top = name.split(".")[0]
            if level == 0 and top != "numpy" and top not in sys.stdlib_module_names:
                foreign.append(f"{path.name}: {name}")
    assert foreign == []


def test_scenario_imports_only_the_geometry_layer():
    own = [(level, name) for level, name in _imports(SRC / "scenario.py") if level > 0]
    assert own == [(1, "geometry")]


def test_scenario_imports_no_private_geometry_name():
    tree = ast.parse((SRC / "scenario.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "geometry"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
