import argparse
import ast
import importlib
from pathlib import Path

import mlc
from mlc import cli


def test_all_names_resolve():
    missing = [name for name in mlc.__all__ if not hasattr(mlc, name)]
    assert missing == []
    assert len(set(mlc.__all__)) == len(mlc.__all__)


def test_star_import_is_clean():
    namespace = {}
    exec("from mlc import *", namespace)
    assert set(mlc.__all__) <= namespace.keys()


# -- the benchmark's run path ---------------------------------------------------
# perfbench imports mlc from the checkout it measures; a name or flag it uses
# that the package drops would end every benchmark run in failed operations.

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _bench_trees() -> list[ast.Module]:
    """perfbench's modules, less its own tests."""
    return [
        ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PERFBENCH.glob("*.py")) if not path.name.startswith("test_")
    ]


def _dotted(node: ast.AST) -> str | None:
    """"a.b.c" of an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _resolves(dotted: str) -> bool:
    """Whether a dotted `mlc` name exists: each part an attribute, or a
    submodule that imports."""
    obj = importlib.import_module("mlc")
    parts = dotted.split(".")
    for depth, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:depth]))
            except ModuleNotFoundError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_benchmark_names_resolve():
    names = set()
    for tree in _bench_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mlc":
                names |= {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Import):
                names |= {a.name for a in node.names if a.name.split(".")[0] == "mlc"}
            elif isinstance(node, ast.Attribute) and (_dotted(node) or "").startswith("mlc."):
                names.add(_dotted(node))
    assert {"mlc.kernels.BACKEND", "mlc.io.write_csv_matrix", "mlc.types.ScoreMatrix"} <= names
    assert sorted(name for name in names if not _resolves(name)) == []


def test_benchmark_flags_are_cli_options():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    calls = [
        node for tree in _bench_trees() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _dotted(node.func) == "bench.mlc"
    ]
    used = {}
    for call in calls:
        command, *args = [a.value for a in call.args if isinstance(a, ast.Constant)]
        used.setdefault(command, set()).update(a for a in args if str(a).startswith("--"))
    assert {"gen", "train", "predict", "evaluate", "fuse"} <= used.keys()
    missing = {
        command: sorted(flags - commands[command]._option_string_actions.keys())
        for command, flags in used.items()
    }
    assert {command: flags for command, flags in missing.items() if flags} == {}


def test_every_error_class_is_raised():
    # a class of mlc/errors.py that no `raise` in the package names is dead
    src = Path(mlc.__file__).parent
    errors = ast.parse((src / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - {"MlcError"}
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised.add((_dotted(node.exc.func) or "").rsplit(".", 1)[-1])
    assert len(defined) >= 10
    assert sorted(defined - raised) == []


def test_readme_lists_each_error_class():
    # the README's error-class list names exactly the subclasses errors.py defines
    src = Path(mlc.__file__).parent
    errors = ast.parse((src / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - {"MlcError"}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listing = readme.split("\nError classes: ", 1)[1].split("\n\n", 2)[1]
    listed = [line.split("`")[1] for line in listing.splitlines()]
    assert sorted(listed) == sorted(defined)
