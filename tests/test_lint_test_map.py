"""Wire the module-to-test map of ``tools/lint.py`` into the suite: every
``src/repro`` module has a test file (or a ``COVERED_BY``/``UNTESTED`` entry)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def test_every_module_has_a_test_file():
    problems = lint.check_test_map()
    assert not problems, "unmapped modules:\n" + "\n".join(problems)


def test_default_convention_paths():
    expected = lint.expected_test_path(
        lint.SRC / "core" / "trainer.py"
    )
    assert expected == lint.TESTS / "core" / "test_trainer.py"
    expected = lint.expected_test_path(lint.SRC / "cli.py")
    assert expected == lint.TESTS / "test_cli.py"


def test_covered_by_targets_exist():
    """A renamed test file cannot silently orphan its mapped modules."""
    for rel, target in lint.COVERED_BY.items():
        assert (ROOT / rel).is_file(), f"stale COVERED_BY key: {rel}"
        assert (ROOT / target).is_file(), f"missing COVERED_BY target: {target}"


def test_scale_package_has_no_exemptions():
    """Every repro.scale module maps to its conventional tests/scale file —
    the oracle tier is first-class, never routed through COVERED_BY or the
    allowlist."""
    exempt = set(lint.COVERED_BY) | lint.UNTESTED
    scale_modules = sorted(
        (lint.SRC / "scale").glob("*.py"))
    assert scale_modules, "repro.scale has gone missing"
    for module in scale_modules:
        if module.name == "__init__.py":
            continue
        rel = module.relative_to(ROOT).as_posix()
        assert rel not in exempt, f"{rel} must use the default convention"
        assert lint.expected_test_path(module).is_file()


def test_stream_package_has_no_exemptions():
    """Every repro.stream module maps to its conventional tests/stream file —
    the streaming tier carries the oracle-equivalence and chaos guarantees,
    so it is never routed through COVERED_BY or the allowlist."""
    exempt = set(lint.COVERED_BY) | lint.UNTESTED
    stream_modules = sorted(
        (lint.SRC / "stream").glob("*.py"))
    assert stream_modules, "repro.stream has gone missing"
    for module in stream_modules:
        if module.name == "__init__.py":
            continue
        rel = module.relative_to(ROOT).as_posix()
        assert rel not in exempt, f"{rel} must use the default convention"
        assert lint.expected_test_path(module).is_file()


def test_allowlist_is_short_and_real():
    assert len(lint.UNTESTED) <= 3, "keep the allowlist short"
    for rel in lint.UNTESTED:
        assert (ROOT / rel).is_file(), f"stale allowlist entry: {rel}"
