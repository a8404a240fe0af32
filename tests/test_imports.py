"""Every name a fklab module imports is used in that module, and every
parameter a fklab function takes is read in its body."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fklab"


def _unused_imports(source: str) -> list[str]:
    """Imported names that no Name node or ``__all__`` entry uses.

    An alias on a line marked ``# noqa: F401`` is a deliberate re-export.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports_in_src():
    assert _unused_imports("import os\nimport sys\nsys.exit\n") \
        == ["os (line 1)"]
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    assert not {k: v for k, v in unused.items() if v}


# the CLI converters share the signature (value, name, d); d, the point
# dimension, matters only to some of them
EXEMPT_PARAMETERS = {"d"}


def _unused_parameters(source: str) -> list[str]:
    """Parameters of a def that no Name node in its body reads.

    A lambda is not checked: each one in src/fklab fills a fixed calling
    protocol, such as a field f(x, s) that does not depend on s.
    """
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs + [args.vararg, args.kwarg] if a]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{node.name}.{p} (line {node.lineno})" for p in params
                   if p not in read and p not in EXEMPT_PARAMETERS]
    return unused


def test_every_parameter_is_read_in_src():
    assert _unused_parameters(
        "def f(a, b, *, c, d=1):\n"
        "    def g(x, y):\n        return c\n    return a + g\n") \
        == ["f.b (line 1)", "g.x (line 2)", "g.y (line 2)"]
    unused = {path.name: _unused_parameters(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    assert not {k: v for k, v in unused.items() if v}
