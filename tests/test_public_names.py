"""Every name a ``ctdrl`` module lists in ``__all__`` exists, and every
public name has a caller in the package or the benchmark, so a deleted
function cannot leave a stale public name behind and a public name cannot
outlive its last caller outside the tests. A module without ``__all__``
counts its top-level public ``def`` and ``class`` names as public."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ctdrl

MODULES = [ctdrl] + [
    importlib.import_module(f"ctdrl.{info.name}")
    for info in pkgutil.iter_modules(ctdrl.__path__)
]

ROOT = Path(__file__).resolve().parents[1]

# Public names kept for the tests alone, each with the reason it stays.
TEST_ORACLES = {
    "brownian_gap_w1_oracle": "closed-form W1 of criterion 2",
    "independent_cdr": "product-coupling baseline of criterion 6",
    "wasserstein_bruteforce": "exhaustive transport oracle of criterion 8",
    "load_checkpoint": "reader of the checkpoint format `lab train` writes",
}

# A benchmark hook names its target as "ctdrl.module:Qualified.name".
_HOOK = re.compile(r"ctdrl\.[\w.]+:([\w.]+)")


def _referenced_names():
    """Identifiers the package and the benchmark use as code: names,
    attributes, imported names and hook targets. A def or class statement and
    an ``__all__`` string are not uses."""
    names = set()
    for path in [*(ROOT / "src" / "ctdrl").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                for target in _HOOK.findall(node.value):
                    names.update(target.split("."))
    return names


def _public_names(module):
    if hasattr(module, "__all__"):
        return set(module.__all__)
    tree = ast.parse(Path(module.__file__).read_text(), module.__file__)
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_all_entry_resolves(module):
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_every_public_name_has_a_caller_outside_tests():
    referenced = _referenced_names()
    public = set().union(*map(_public_names, MODULES))
    assert sorted(public - referenced - TEST_ORACLES.keys()) == []
    # an oracle that gains a caller, or leaves __all__, leaves the allowlist
    assert sorted(TEST_ORACLES.keys() & referenced) == []
    assert sorted(TEST_ORACLES.keys() - public) == []
