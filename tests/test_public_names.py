"""Every name a ``ctdrl`` module lists in ``__all__`` exists, and every
public name has a caller in the package or the benchmark, so a deleted
function cannot leave a stale public name behind and a public name cannot
outlive its last caller outside the tests. A module without ``__all__``
counts its top-level public ``def`` and ``class`` names as public. The same
holds one level down: every method, property and plain class attribute of a
``ctdrl`` class is read as an attribute in the package or the benchmark."""

import ast
import importlib
import pkgutil
import re
from collections import Counter
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
_SOURCES = [*(ROOT / "src" / "ctdrl").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _referenced_names():
    """Identifiers the package and the benchmark use as code: names,
    attributes, imported names and hook targets. A def or class statement and
    an ``__all__`` string are not uses."""
    names = set()
    for path in _SOURCES:
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


def _attribute_reads(tree):
    """Names read as ``obj.name`` in ``tree``, with hook targets' parts."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for target in _HOOK.findall(node.value):
                reads.update(target.split("."))
    return reads


def _is_record_class(cls):
    """A dataclass or NamedTuple: its annotated class attributes are fields,
    read through field lists (``_write_csv``, the replay record dtype)."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases))


def _class_members(tree):
    """(class, member, definition) per method, property and plain class
    attribute of each class in ``tree``; dunders and fields are left out."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif (isinstance(node, ast.AnnAssign) and node.value is not None
                  and not _is_record_class(cls)):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield cls.name, name, node


def test_every_class_member_is_read_outside_its_definition():
    """Name-based: a member counts as read when any attribute of its name is
    read outside its own definition, so a name shared across classes is not
    caught (an agent's ``kind`` once hid behind ``DistortionMeasure.kind``)."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _SOURCES}
    reads = sum(map(_attribute_reads, trees.values()), Counter())
    unread = [f"{path.stem}.{cls}.{name}"
              for path, tree in trees.items() if path.parent.name == "ctdrl"
              for cls, name, node in _class_members(tree)
              if reads[name] == _attribute_reads(node)[name]]
    assert unread == []
