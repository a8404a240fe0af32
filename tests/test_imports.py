"""Every name a fklab module imports is used in that module, every
parameter a fklab function takes is read in its body, no preset name is
compared, no module builds whole paths, only the block stream draws
increments and no def takes a horizon t beside its TimeGrid."""

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


# the CLI converters share the signature (value, name, pot); pot, the
# potential resolved before the value, matters only to some of them
EXEMPT_PARAMETERS = {"pot"}


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
        "def f(a, b, *, c, pot=1):\n"
        "    def g(x, y):\n        return c\n    return a + g\n") \
        == ["f.b (line 1)", "g.x (line 2)", "g.y (line 2)"]
    unused = {path.name: _unused_parameters(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    assert not {k: v for k, v in unused.items() if v}


def _preset_names() -> set[str]:
    """Every preset name: the keys of POTENTIAL_PRESETS and of each dict
    literal handed to ``cli._presets``."""
    from fklab.fkschrodinger import POTENTIAL_PRESETS

    names = set(POTENTIAL_PRESETS)
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text("utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") \
                == "_presets" and isinstance(node.args[0], ast.Dict):
            names.update(k.value for k in node.args[0].keys
                         if isinstance(k, ast.Constant))
    return names


def _preset_comparisons(source: str, names: set[str]) -> list[str]:
    """Compare nodes with a preset-name string constant as an operand, bare
    or inside a tuple, list or set literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        for operand in [node.left, *node.comparators]:
            elts = operand.elts if isinstance(
                operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
            found += [f"{e.value} (line {node.lineno})" for e in elts
                      if isinstance(e, ast.Constant) and e.value in names]
    return found


def test_no_preset_name_is_compared_in_src():
    names = _preset_names()
    assert {"free", "gaussian", "linear", "random-hermitian"} <= names
    assert _preset_comparisons(
        'if p["name"] == "free" or k in ("sine", "x") or k == "d":\n'
        '    pass\n', names) == ["free (line 1)", "sine (line 1)"]
    found = {path.name: _preset_comparisons(path.read_text("utf-8"), names)
             for path in sorted(SRC.glob("*.py"))}
    assert not {k: v for k, v in found.items() if v}


# whole-path forms that stay in wiener only because the benchmark's
# tracer wraps them by name; the walks build paths with path_blocks
FULL_PATH_BUILDERS = {"paths_from_increments", "bridge_from_free"}


def _calls(source: str, names) -> list[tuple[str, str, int]]:
    """(caller, name, line) of each call of one of ``names``, by bare name
    or as an attribute; the caller is the innermost enclosing def."""
    found = []

    def visit(node, caller):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in names:
                    found.append((caller, name, child.lineno))
            visit(child, caller)

    visit(ast.parse(source), None)
    return found


def _full_path_calls(source: str) -> list[str]:
    """Calls of a whole-path builder."""
    return [f"{name} (line {line})"
            for _, name, line in _calls(source, FULL_PATH_BUILDERS)]


def test_no_module_builds_whole_paths_in_src():
    assert _full_path_calls(
        "w = paths_from_increments(g, dw)\n"
        "b = wiener.bridge_from_free(g, w, e)\n"
        "f = paths_from_increments\n") \
        == ["paths_from_increments (line 1)", "bridge_from_free (line 2)"]
    found = {path.name: _full_path_calls(path.read_text("utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert not {k: v for k, v in found.items() if v}


def test_only_the_block_stream_draws_increments_in_src():
    # every walk draws its increments a block at a time, so no function
    # but wiener.increment_blocks calls sample_increments
    assert _calls("def f(g):\n    x = sample_increments(g)\n"
                  "def increment_blocks(g):\n"
                  "    yield wiener.sample_increments(g)\n",
                  {"sample_increments"}) \
        == [("f", "sample_increments", 2),
            ("increment_blocks", "sample_increments", 4)]
    callers = {path.name: {c for c, _, _ in _calls(
        path.read_text("utf-8"), {"sample_increments"})}
        for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in callers.items() if v} \
        == {"wiener.py": {"increment_blocks"}}


def _horizon_twins(source: str) -> list[str]:
    """Defs that take both a parameter ``t`` and one annotated TimeGrid,
    whose ``t_end`` is already the horizon."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        grids = [a for a in args if a.annotation is not None and any(
            getattr(n, "id", getattr(n, "attr", None)) == "TimeGrid"
            for n in ast.walk(a.annotation))]
        if grids and any(a.arg == "t" for a in args):
            found.append(f"{node.name} (line {node.lineno})")
    return found


def test_no_def_takes_t_beside_a_time_grid_in_src():
    assert _horizon_twins(
        "def f(t: float, grid: TimeGrid):\n    pass\n"
        "def g(t, *, grid: wiener.TimeGrid | None = None):\n    pass\n"
        "def h(grid: TimeGrid, s):\n    pass\n"
        "def k(t: float, grid):\n    pass\n") \
        == ["f (line 1)", "g (line 3)"]
    found = {path.name: _horizon_twins(path.read_text("utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert not {k: v for k, v in found.items() if v}
