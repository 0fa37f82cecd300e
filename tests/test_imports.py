"""Every module-level import of a symplab module is used in that module,
every module-level private function is referenced somewhere in the
package, and every dataclass field of the package is read somewhere in the
package, its tests or its benchmark.  ``__init__.py`` re-exports names and
is exempt from the first."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symplab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def dead_private_functions(sources: list[str]) -> list[str]:
    """Module-level ``_name`` functions that no name or attribute in the
    sources refers to."""
    trees = [ast.parse(source) for source in sources]
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [name for name in defined if name not in used]


def _is_dataclass(node) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_dataclass_fields(package: list[str], readers: list[str]) -> list[str]:
    """``Class.field`` for each dataclass field defined in the package
    sources that no attribute read in the package or reader sources names."""
    trees = [ast.parse(source) for source in package + readers]
    fields = [
        (node.name, stmt.target.id)
        for tree in trees[:len(package)]
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in ast.unparse(stmt.annotation)
    ]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c as d\nsys.exit(d)\n") == [
        "os", "b",
    ]


def test_checker_finds_a_dead_private_function():
    sources = [
        "def _dead(): pass\ndef _called(): pass\ndef _named(): pass\ndef __dunder__(): pass\n",
        "import a\na._called()\nf = _named\n",
    ]
    assert dead_private_functions(sources) == ["_dead"]


def test_checker_finds_an_unread_dataclass_field():
    package = [
        "@dataclass(frozen=True)\nclass A:\n    kept: int\n    dropped: int\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "@dataclasses.dataclass\nclass B:\n    used: int\n    written: int\n"
        "class C:\n    plain: int\n",
    ]
    readers = ["a.kept\nb.written = 1\nprint(b.used)\n"]
    assert unread_dataclass_fields(package, readers) == ["A.dropped", "B.written"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_no_dead_private_functions():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert dead_private_functions(sources) == []


def test_no_unread_dataclass_fields():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    readers = [
        p.read_text(encoding="utf-8")
        for folder in ("tests", "perfbench")
        for p in sorted((ROOT / folder).glob("*.py"))
    ]
    assert unread_dataclass_fields(package, readers) == []
