"""Every function, class and method of the package has a caller: its name is
referenced somewhere in `src/poissonlie` outside its own body.  Oracles and
helpers that only tests use live in `tests/references.py`.

Matching is by name, so a definition whose name is shared with another
attribute (`mode`, `residual`) is not caught."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "poissonlie"

#: (module, qualified name) of definitions called by a framework, not by
#: name: argparse calls the parser's `error`
EXEMPT = {("cli", "_Parser.error")}


def _registered(node) -> bool:
    """Decorated with `@_register(...)`: the check registry calls it."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_register" for d in node.decorator_list)


def _definitions(tree):
    """(qualified name, node) of every module-level function and class and
    every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def uncalled(src: Path) -> list[str]:
    """`module.qualname` of each definition under `src` whose name no other
    code there references, as a name or as an attribute."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    refs: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if ((name.startswith("__") and name.endswith("__")) or _registered(node)
                    or (module, qualname) in EXEMPT):
                continue
            own = {id(n) for n in ast.walk(node)}
            if all(id(ref) in own for ref in refs.get(name, [])):
                out.append(f"{module}.{qualname}")
    return out


def test_every_definition_in_the_package_has_a_caller():
    assert uncalled(SRC) == []


def test_the_guard_flags_code_without_callers(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "@_register('x')\ndef registered():\n    pass\n\n\n"
        "class Thing:\n"
        "    def __init__(self):\n        self.x = used()\n\n"
        "    def method(self):\n        return self.x\n\n"
        "    def dead(self):\n        return Thing()\n")
    (tmp_path / "b.py").write_text("from .a import Thing\n\n\ndef main():\n    Thing().method()\n")
    assert uncalled(tmp_path) == ["a.recursive", "a.Thing.dead", "b.main"]
