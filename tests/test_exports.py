"""Every exported name resolves and has a caller outside the tests.

The first check means a deletion cannot leave a stale export; the second
that no public API survives only for the tests' sake.
"""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = ("bnre", "bnre.autodiff", "bnre.cli", "bnre.diagnostics", "bnre.files",
           "bnre.harness", "bnre.nets", "bnre.ratio", "bnre.rng", "bnre.simulators",
           "bnre.training")

ROOT = Path(__file__).resolve().parent.parent

# exported names that only the tests call, each with the reason it stays
TEST_REFERENCES = {
    "bnre.autodiff": "the reverse-mode tape is the tests' independent gradient reference",
    "bnre.training.finite_diff_check": "acceptance criterion 2's central-difference check",
    "bnre.ratio.tractable_posterior_grid": "criterion 3's exact posterior oracle",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _references() -> set[str]:
    """Names loaded and attributes read anywhere in src/ or perfbench/.

    Imports and definitions are not references. The tracer in
    perfbench/spans.py also reaches its targets by attribute name, from
    the string in each ``_TARGETS`` entry.
    """
    names = set()
    for path in [*(ROOT / "src" / "bnre").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Assign) and path.name == "spans.py"
                  and any(isinstance(t, ast.Name) and t.id == "_TARGETS" for t in node.targets)):
                names.update(entry.elts[1].value for entry in node.value.elts)
    return names


@pytest.mark.parametrize("name", [m for m in MODULES if m not in TEST_REFERENCES])
def test_every_name_in_all_has_a_caller_outside_the_tests(name):
    module = importlib.import_module(name)
    references = _references()
    unused = [n for n in getattr(module, "__all__", ())
              if n not in references and f"{name}.{n}" not in TEST_REFERENCES]
    assert not unused
