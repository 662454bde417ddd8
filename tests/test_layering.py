"""Package layering guard: the checkpoint layer knows nothing of the FT
layer above it, and the FT layer reaches the checkpoint layer only
through its config and its library factory (``ARCHITECTURE.md``).

Every import statement counts, function-local ones included."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: the names ``repro.ft`` may import from ``repro.checkpoint``
FT_CHECKPOINT_SURFACE = {"CheckpointConfig", "CheckpointBackend",
                         "make_checkpoint_lib"}


def _imports(package, root=SRC):
    """``(file, module, names)`` for every import under ``root/package``:
    ``names`` is ``None`` for a plain ``import module``, and relative
    imports are resolved to absolute module names."""
    for path in sorted((root / package).rglob("*.py")):
        parts = list(path.relative_to(root).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        else:
            parts[-1:] = []  # the package a relative import starts from
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path, alias.name, None
            elif isinstance(node, ast.ImportFrom):
                base = parts[:len(parts) - node.level + 1] if node.level \
                    else []
                module = ".".join(base + ([node.module] if node.module
                                          else []))
                yield path, module, [alias.name for alias in node.names]


def _reaches(module, names, target):
    """Whether an import of ``names`` from ``module`` reaches the
    package ``target`` (e.g. ``from repro import ft``)."""
    if module == target or module.startswith(target + "."):
        return True
    parent, _, leaf = target.rpartition(".")
    return module == parent and names is not None and leaf in names


def test_checkpoint_layer_imports_nothing_from_ft():
    offenders = [f"{path.relative_to(SRC)}: {module} {names or ''}"
                 for path, module, names in _imports("repro/checkpoint")
                 if _reaches(module, names, "repro.ft")]
    assert offenders == []


def test_ft_layer_reaches_checkpoints_through_config_and_factory():
    offenders = [f"{path.relative_to(SRC)}: {module} {names or ''}"
                 for path, module, names in _imports("repro/ft")
                 if _reaches(module, names, "repro.checkpoint")
                 and (names is None or module == "repro"
                      or not set(names) <= FT_CHECKPOINT_SURFACE)]
    assert offenders == []


def test_guard_sees_function_local_and_relative_imports(tmp_path):
    """The guard is not fooled by where or how an import is written."""
    pkg = tmp_path / "repro" / "checkpoint"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("from . import sub\n")
    (pkg / "sub.py").write_text(
        "def f():\n    from ..ft import rankstate\n")
    found = {(module, tuple(names or ()))
             for _, module, names in _imports("repro/checkpoint", tmp_path)}
    assert found == {("repro.checkpoint", ("sub",)),
                     ("repro.ft", ("rankstate",))}
    assert _reaches("repro.ft", ["rankstate"], "repro.ft")
    assert _reaches("repro", ["ft"], "repro.ft")
    assert not _reaches("repro.checkpoint", ["sub"], "repro.ft")
