"""The package depends on NumPy and the standard library only, and the scenario
loader builds on the public names of the geometry layer alone. No module takes a
private name from another beyond the two private imports in place."""

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


def test_no_new_private_name_crosses_a_module_boundary():
    """Modules import each other's public names only, apart from the two private
    imports in place: the cascade kernel for the sweeps and the JSON writer for the CLI."""
    private = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "irslab"
            ):
                private.update(f"{path.stem} <- {node.module}.{alias.name}" for alias in node.names
                               if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert private == {"experiments <- metrics._cascade_sums", "cli <- experiments._write_json"}
