"""Wire the ``silent-except`` rule of ``tools/lint.py`` into the suite.

``src/`` must never swallow exceptions silently: no bare ``except:``, no
``except Exception:`` with a do-nothing body.  Silent handlers are how injected NaNs and corrupt
checkpoints would escape the resilience guards.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _check(path):
    return lint.check_file(path, [lint.RULES["silent-except"]])


def test_src_has_no_silent_excepts():
    findings = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        findings.extend(_check(path))
    assert not findings, "silent except handlers:\n" + "\n".join(findings)


def test_detects_bare_except(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("try:\n    x = 1\nexcept:\n    x = 2\n")
    findings = _check(module)
    assert len(findings) == 1 and "bare" in findings[0]


def test_detects_broad_silent_handler(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("try:\n    x = 1\nexcept Exception:\n    pass\n")
    findings = _check(module)
    assert len(findings) == 1 and "swallows" in findings[0]


def test_broad_in_tuple_is_caught(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "try:\n    x = 1\nexcept (ValueError, BaseException):\n    ...\n"
    )
    assert len(_check(module)) == 1


def test_narrow_silent_handler_is_legal(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("try:\n    import foo\nexcept ImportError:\n    pass\n")
    assert _check(module) == []


def test_broad_handler_with_real_body_is_legal(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "try:\n    x = 1\nexcept Exception as exc:\n    raise RuntimeError(str(exc))\n"
    )
    assert _check(module) == []

