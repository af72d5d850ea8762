"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest

MODULES = ("bnre", "bnre.autodiff", "bnre.cli", "bnre.diagnostics", "bnre.files",
           "bnre.harness", "bnre.nets", "bnre.ratio", "bnre.rng", "bnre.simulators",
           "bnre.training")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing

