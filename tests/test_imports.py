"""Every name a fklab module imports is used in that module."""

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
