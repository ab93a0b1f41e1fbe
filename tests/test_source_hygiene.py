"""Static checks on the package source: no unused import, no orphaned private or dead public name.

The rules read the syntax tree only (stdlib ``ast``), so they catch what a
deletion leaves behind: an import whose last use went, a module-level
``_helper`` that nothing calls any more, or a public name that nothing
reads but the package's re-exports. A check keeps the op count that the
docs state equal to the catalogue's, and a last one pins how many
parameters the package's public functions and classes take, so a change
that adds an option has to move the pin and say so.
"""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

from infogan_lab import autodiff

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "infogan_lab"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
# where a public name may be read; the package's __init__ only re-exports, so it is not among them
READERS = [path for d in ("src/infogan_lab", "tests", "demos", "perfbench") for path in sorted((ROOT / d).glob("*.py"))
           if path != SRC / "__init__.py"]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names the module's imports bind that no other line of it reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def definitions(tree: ast.Module) -> list[str]:
    """Module-level names the module defines: functions, classes and assigned names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_names`` the module defines, not dunders."""
    return [n for n in definitions(tree) if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def public_definitions(tree: ast.Module) -> list[str]:
    """Module-level names the module defines without a leading underscore."""
    return [n for n in definitions(tree) if not n.startswith("_")]


def references(tree: ast.Module) -> set[str]:
    """Every name the module reads, looks up as an attribute, or imports from another module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


# the package's __init__ imports in order to re-export, so its names are read by its users
@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports(TREES[module]) == []


def test_every_module_level_private_name_is_referenced_in_the_package():
    referenced = set().union(*map(references, TREES.values()))
    orphans = [f"{module}:{name}" for module, tree in TREES.items()
               for name in private_definitions(tree) if name not in referenced]
    assert orphans == []


def test_every_module_level_public_name_is_read_beyond_the_package_exports():
    read = set().union(*(references(ast.parse(path.read_text(), filename=str(path))) for path in READERS))
    dead = [f"{module}:{name}" for module, tree in TREES.items() if module != "__init__.py"
            for name in public_definitions(tree) if name not in read]
    assert dead == []


def test_both_rules_catch_what_a_deletion_leaves_behind():
    tree = ast.parse(
        "import math\nimport numpy as np\nfrom .models import Dense, _layout\n"
        "_LIMIT = 3\n_cache: dict = {}\n"
        "def _kept():\n    return np.zeros(_LIMIT)\n"
        "def _orphan():\n    return _kept()\n"
        "class Breakdown:\n    total: float\n"
        "def entropy(spec):\n    return spec.total\n"
        "def totals(spec):\n    return Breakdown(entropy(spec))\n"
    )
    assert unused_imports(tree) == ["math", "Dense", "_layout"]
    assert [n for n in private_definitions(tree) if n not in references(tree)] == ["_cache", "_orphan"]
    assert [n for n in public_definitions(tree) if n not in references(tree)] == ["totals"]


def test_docs_state_the_catalogue_size():
    # README's "catalogue of N ops" and every "N ops" of the autodiff docstring
    readme = re.findall(r"catalogue\s+of\s+(\d+)\s+ops", (ROOT / "README.md").read_text())
    docstring = re.findall(r"(\d+)\s+ops\b", autodiff.__doc__)
    assert readme and docstring
    assert {int(n) for n in readme + docstring} == {len(autodiff.OP_CATALOGUE)}


# the parameters of every public function and non-exception class each module defines, self excluded;
# a dataclass counts its fields. Move this pin, and name the option, when a change adds or removes one.
PUBLIC_PARAMETERS = 254


def public_parameter_count() -> int:
    count = 0
    for module in (importlib.import_module(f"infogan_lab.{name[:-3]}") for name in TREES if name != "__init__.py"):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, BaseException)):
                count += sum(p != "self" for p in inspect.signature(obj).parameters)
    return count


def test_public_parameter_count_is_pinned():
    assert public_parameter_count() == PUBLIC_PARAMETERS
