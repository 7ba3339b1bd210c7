"""The package depends on NumPy and the standard library only, and the scenario
loader builds on the public names of the geometry layer alone. No module takes a
private name from another beyond the one private import in place. Every public
name has a production caller or a stated reason in the README, every dotted irslab
name the README and docs/ cite exists, and the README's examples run."""

import ast
import dataclasses
import importlib
import inspect
import re
import shlex
import sys
from pathlib import Path

import irslab
from irslab.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "irslab"


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
    """Modules import each other's public names only, apart from the one private
    import in place: the JSON writer for the CLI."""
    private = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "irslab"
            ):
                private.update(f"{path.stem} <- {node.module}.{alias.name}" for alias in node.names
                               if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert private == {"cli <- experiments._write_json"}


def _names_something(ref: str) -> bool | None:
    """Whether a dotted name such as `metrics._cascade_sums` or `Scene.element_distances`
    exists in irslab; None when its head is neither an irslab module nor a class the
    package exports (a scenario key such as `grid.f_c_ghz`, or `np.bincount`)."""
    head, *rest = ref.split(".")
    if head == "irslab" and rest:
        head, *rest = rest
    if (SRC / f"{head}.py").is_file():
        obj = importlib.import_module(f"irslab.{head}")
    elif inspect.isclass(getattr(irslab, head, None)):
        obj = getattr(irslab, head)
    else:
        return None
    for i, name in enumerate(rest):
        if hasattr(obj, name):
            obj = getattr(obj, name)
        else:  # a dataclass field without a default is no class attribute
            fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
            return i == len(rest) - 1 and name in {f.name for f in fields}
    return True


def test_every_cited_name_exists():
    """A backticked dotted name in the README or docs/ that starts at an irslab module or
    exported class must resolve, so the prose cannot outlive a renamed or deleted name."""
    stale = [
        f"{path.relative_to(ROOT)}: {ref}"
        for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
        for ref in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", path.read_text())
        if _names_something(ref) is False
    ]
    assert stale == []


# the README paragraph that names every public name production code does not call
KEPT_OPENING = "Public names that production code does not call"


def _public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function and class of a module, and
    ("Class.method", node) of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def test_every_public_name_has_a_production_caller_or_a_stated_reason():
    """A public function, class or method that no production code reads, apart from its
    own definition, is a second door onto code that production reaches another way.
    Only the README's kept-reference paragraph may keep one, in backticks with its
    reason. The package's re-exports in __init__.py are not callers."""
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    reads = [(node.id if isinstance(node, ast.Name) else node.attr, node)
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    (kept,) = [p for p in (ROOT / "README.md").read_text().split("\n\n")
               if p.startswith(KEPT_OPENING)]
    listed = set(re.findall(r"`([A-Za-z_][\w.]*)", kept))
    orphans = []
    for tree in trees:
        for name, node in _public_definitions(tree):
            own, attr = set(ast.walk(node)), name.rsplit(".", 1)[-1]
            if name not in listed and not any(r == attr and n not in own for r, n in reads):
                orphans.append(name)
    assert orphans == []


def _fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_python_examples_run():
    blocks = _fenced("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_command_lines_parse():
    """Each `irslab ...` line of the README's sh blocks parses; none is run."""
    lines = [line.split("#", 1)[0] for block in _fenced("sh")
             for line in block.splitlines() if line.startswith("irslab ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
