"""API surface hygiene: exports resolve, public items are documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.autograd",
    "repro.graphs",
    "repro.nn",
    "repro.core",
    "repro.engine",
    "repro.baselines",
    "repro.eval",
    "repro.bench",
    "repro.obs",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} missing __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} in __all__ but not importable"


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} has no module docstring"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_documented(package):
    """Every exported class and function carries a docstring."""
    module = importlib.import_module(package)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{package}: missing docstrings on {undocumented}"


def test_public_classes_have_documented_methods():
    """Public methods of the flagship classes are documented."""
    from repro.core import E2GCL, E2GCLTrainer
    from repro.graphs import Graph
    from repro.nn import GCN

    for cls in (E2GCL, E2GCLTrainer, Graph, GCN):
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name} undocumented"


def test_version_is_exposed():
    import repro

    assert repro.__version__


def test_stopwatch_stays_removed():
    """``repro.eval.timer`` was folded into ``repro.obs`` spans; the module
    and its ``Stopwatch`` export must not come back."""
    import repro.eval

    assert not hasattr(repro.eval, "Stopwatch")
    assert "Stopwatch" not in repro.eval.__all__
    with pytest.raises(ImportError):
        importlib.import_module("repro.eval.timer")


def test_no_accidental_sklearn_or_torch_imports():
    """The reproduction must stand on numpy/scipy/networkx alone."""
    import sys

    for forbidden in ("torch", "sklearn", "torch_geometric", "dgl"):
        assert forbidden not in sys.modules, f"{forbidden} was imported"
