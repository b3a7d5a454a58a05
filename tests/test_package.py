"""The charblocks package: its public names, each resolved from its module on
first use, and its modules, which keep what pyproject.toml promises."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charblocks

SRC = Path(__file__).resolve().parent.parent / "src"
SRC_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(SRC)}
MODULES = sorted((SRC / "charblocks").glob("*.py"))

# Every public name by the module that defines it, as at the eager package,
# less chi_bar_coeffs, e_weight and CountReport, since removed, and CharEngine,
# which is no longer public but stays in characters.
EXPORTS = {
    "partitions": ("conjugate", "diagonal_hooks", "dominance_leq", "e_core",
                   "is_e_class_regular", "is_e_core", "parse_partition", "partitions_of",
                   "render_partition"),
    "characters": ("centralizer_order", "char_degree", "char_value", "character_table"),
    "blocks": ("BlockId", "block_partitions", "blocks_of", "c_mu", "count_matrix",
               "extremal_lambda", "min_c_over_regular"),
    "sweeps": ("SweepReport", "lemma1_sweep", "nonvanishing_row_structure_check",
               "verify_chibar", "verify_dichotomy", "verify_remark1", "verify_remark2",
               "verify_theorem1"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_is_unchanged():
    # The 28 public names and the 4 submodules, sorted, as dir() gave them.
    assert charblocks.__all__ == sorted([*EXPORTS, *(name for _, name in NAMES)])
    assert len(charblocks.__all__) == 32


def test_dir_lists_every_name():
    assert set(charblocks.__all__) <= set(dir(charblocks))


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_the_modules_own_object(module, name):
    assert getattr(charblocks, name) is getattr(
        importlib.import_module(f"charblocks.{module}"), name)


@pytest.mark.parametrize("module", EXPORTS)
def test_submodule_names_resolve(module):
    assert getattr(charblocks, module) is importlib.import_module(f"charblocks.{module}")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from charblocks import *", namespace)
    assert all(namespace[name] is getattr(charblocks, name) for name in charblocks.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        charblocks.no_such_name


def test_import_loads_no_submodule():
    # In a fresh interpreter: none after the import, partitions alone once
    # e_core is read.
    probe = ("import sys, charblocks\n"
             "print(*[m for m in sys.modules if m.startswith('charblocks.')])\n"
             "charblocks.e_core\n"
             "print(*[m for m in sys.modules if m.startswith('charblocks.')])\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=SRC_ENV, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["", "charblocks.partitions"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_needs_python_3_10_and_the_standard_library(path):
    # pyproject.toml promises requires-python = ">=3.10" and dependencies = [].
    tree = ast.parse(path.read_text(), feature_version=(3, 10))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # not an import, or a relative one: within the package
        for name in names:
            top = name.partition(".")[0]
            assert top == "charblocks" or top in sys.stdlib_module_names, f"imports {name}"


def test_src_has_no_assert():
    # python -O strips an assert, so an invariant that rests on one goes unchecked.
    found = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not found, found
