"""Every name a ``ctdrl`` module lists in ``__all__`` exists, so a deleted
function cannot leave a stale public name behind."""

import importlib
import pkgutil

import pytest

import ctdrl

MODULES = [ctdrl] + [
    importlib.import_module(f"ctdrl.{info.name}")
    for info in pkgutil.iter_modules(ctdrl.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_all_entry_resolves(module):
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
