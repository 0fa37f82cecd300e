"""Every module-level import of a symplab module is used in that module,
every module-level private function is referenced somewhere in the
package, every dataclass field of the package is read somewhere in the
package, its tests or its benchmark, every public method or property of a
package class is referenced in the package, its benchmark or the test
oracles, and every input refusal of the package is named by some test, no
symplab module imports inside a function, and no function but
``polynomials.sum_terms`` merges the values of equal keys.
``__init__.py`` re-exports names and is exempt from the first."""

import ast
import re
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


def _referenced(trees) -> set[str]:
    """Every name and attribute the trees refer to."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


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
    used = _referenced(trees)
    return [name for name in defined if name not in used]


def function_imports(source: str) -> list[str]:
    """Each import statement inside a function body, in source order."""
    nested = {
        inner
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    }
    return [ast.unparse(node) for node in sorted(nested, key=lambda node: node.lineno)]


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


def dead_public_methods(package: list[str], readers: list[str]) -> list[str]:
    """``Class.name`` for each public method or property defined in a class
    of the package sources that no name or attribute in the package or
    reader sources refers to."""
    trees = [ast.parse(source) for source in package + readers]
    methods = [
        (node.name, item.name)
        for tree in trees[:len(package)]
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]
    used = _referenced(trees)
    return [f"{cls}.{name}" for cls, name in methods if name not in used]


def refusal_fragments(source: str) -> list[str]:
    """The longest fixed fragment of each ``raise InputError(...)`` message:
    the whole of a plain string, the longest literal part of an f-string.
    A message with no literal text, such as ``str(exc)``, gives none."""
    fragments = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "InputError" and node.exc.args):
            continue
        message = node.exc.args[0]
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        literal = [p.value for p in parts if isinstance(p, ast.Constant)]
        if literal:
            fragments.append(max(literal, key=len))
    return fragments


def unnamed_refusals(package: list[str], tests: list[str]) -> list[str]:
    """Refusal fragments of the package that no string in the tests holds,
    either as written or with its regex escapes removed."""
    strings = [
        node.value
        for source in tests
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    text = "\n".join(strings + [re.sub(r"\\(.)", r"\1", s) for s in strings])
    return [f for source in package for f in refusal_fragments(source) if f not in text]


def _own_nodes(function):
    """The nodes of a function's body outside any function nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _get_of(node) -> str | None:
    """The dumped ``d`` of a ``d.get(...)`` call, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
        return ast.dump(node.func.value)
    return None


def hand_merges(source: str) -> list[str]:
    """The function name of each assignment, outside ``sum_terms``, that
    adds into a dict entry read with ``get``: it assigns ``d[...]`` a value
    holding a ``+`` and ``d.get(...)`` or a name bound to it, in source
    order.  A cache that stores a fresh value on a missed ``get`` holds
    neither, so it is no merge."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) or function.name == "sum_terms":
            continue
        assigns = [node for node in _own_nodes(function) if isinstance(node, ast.Assign)]
        bound = {
            target.id: _get_of(node.value)
            for node in assigns if _get_of(node.value)
            for target in node.targets if isinstance(target, ast.Name)
        }
        for node in assigns:
            inner = list(ast.walk(node.value))
            if not any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add) for n in inner):
                continue
            read = {_get_of(n) for n in inner} | {bound.get(n.id) for n in inner if isinstance(n, ast.Name)}
            if any(isinstance(t, ast.Subscript) and ast.dump(t.value) in read for t in node.targets):
                found.append((node.lineno, function.name))
    return [name for _, name in sorted(found)]


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


def test_checker_finds_an_import_in_a_function():
    source = (
        "import os\nfrom . import a\n"
        "def f():\n    from .b import c\n    def g():\n        import d\n    return c\n"
        "class K:\n    async def m(self):\n        import e, f as h\n"
    )
    assert function_imports(source) == ["from .b import c", "import d", "import e, f as h"]


def test_checker_finds_an_unread_dataclass_field():
    package = [
        "@dataclass(frozen=True)\nclass A:\n    kept: int\n    dropped: int\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "@dataclasses.dataclass\nclass B:\n    used: int\n    written: int\n"
        "class C:\n    plain: int\n",
    ]
    readers = ["a.kept\nb.written = 1\nprint(b.used)\n"]
    assert unread_dataclass_fields(package, readers) == ["A.dropped", "B.written"]


def test_checker_finds_a_dead_public_method():
    package = [
        "class A:\n    def kept(self): pass\n    def dead(self): pass\n"
        "    def _private(self): pass\n    def __len__(self): return 0\n"
        "    @property\n    def size(self): return 1\n"
        "    @classmethod\n    def make(cls): return cls()\n"
        "def helper(a):\n    return a.kept()\n",
    ]
    readers = ["A.make().size\n"]
    assert dead_public_methods(package, readers) == ["A.dead"]
    assert dead_public_methods(package, []) == ["A.dead", "A.size", "A.make"]


def test_checker_finds_an_unnamed_refusal():
    package = [
        'raise InputError("named")\nraise InputError(f"{x} = {n} is too big")\n'
        'raise InputError(str(exc))\nraise InputError(f"a [{n}] b")\n'
        'raise ValueError("not a refusal")\n',
    ]
    tests = ['match = "^named$"\nmatch2 = r"a \\[3\\] b"\n']
    assert unnamed_refusals(package, tests) == [" is too big"]


def test_checker_finds_a_hand_merge():
    source = (
        "def by_default(d, k, c):\n    d[k] = d.get(k, 0) + c\n"
        "def by_name(self, k, c):\n    acc = self.t.get(k)\n"
        "    self.t[k] = c if acc is None else acc + c\n"
        "def cache(self, m):\n    index = self._scatter.get(m)\n    if index is None:\n"
        "        index = self._scatter[m] = m * 2 + 1\n    return index\n"
        "def other_dict(d, e, k):\n    e[k] = d.get(k, 0) + 1\n"
        "def outer(d):\n    def inner(k):\n        d[k] = d.get(k, 0) + 1\n    return inner\n"
        "def sum_terms(pairs):\n    out = {}\n    for key, value in pairs:\n"
        "        acc = out.get(key)\n        out[key] = value if acc is None else acc + value\n"
        "    return out\n"
    )
    assert hand_merges(source) == ["by_default", "by_name", "inner"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_imports_inside_functions(module):
    assert function_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


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


def test_no_dead_public_methods():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    readers = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    readers.append((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    assert dead_public_methods(package, readers) == []


def test_sums_merge_only_in_sum_terms():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert [name for source in sources for name in hand_merges(source)] == []


def test_every_refusal_is_named_by_a_test():
    package = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    tests = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests").glob("*.py"))]
    assert unnamed_refusals(package, tests) == []
