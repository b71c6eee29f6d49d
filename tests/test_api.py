"""The public API: the top-level names, and no module importing what it never uses."""

import ast
from pathlib import Path

import pytest

import treeshrink

PUBLIC = [
    "ReductionConfig", "ReductionReport", "RegularizationOverflowError",
    "ScenarioMatrix", "ScenarioTree", "TreeFormatError", "TreeValidationError",
    "fan_tree", "ffs_init", "generate_random", "init_plan", "kmeans_init",
    "load_csv", "merge_prefixes", "nested_distance", "path_cost_table",
    "probability_step", "quantizer_step", "random_init", "reduce_tree",
]

PACKAGE = Path(treeshrink.__file__).resolve().parent


def test_top_level_names():
    assert sorted(treeshrink.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(treeshrink, name) is not None


def unused_imports(source):
    """Names a module binds by import and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_is_found():
    source = "from .ot_core import transport_lp, wasserstein_lp  # noqa: F401\n" \
             "x = transport_lp\nimport numpy as np\n"
    assert unused_imports(source) == ["np (line 3)", "wasserstein_lp (line 1)"]
