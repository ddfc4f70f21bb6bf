"""Wire the ``imports`` rule of ``tools/lint.py`` into the suite: ``src/``
stays import-clean."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _check(path):
    return lint.check_file(path, [lint.RULES["imports"]])


def test_src_has_no_unused_imports():
    findings = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        findings.extend(_check(path))
    assert not findings, "unused imports:\n" + "\n".join(findings)


def test_detects_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nimport sys\n\nprint(sys.argv)\n")
    findings = _check(module)
    assert len(findings) == 1 and "os" in findings[0]


def test_attribute_usage_counts(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os.path\n\nprint(os.path.sep)\n")
    assert _check(module) == []


def test_future_imports_exempt(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from __future__ import annotations\n\nx = 1\n")
    assert _check(module) == []
