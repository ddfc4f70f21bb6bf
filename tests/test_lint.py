"""The command line of ``tools/lint.py``: exit 0 clean, 1 on findings, 2 on a
missing path."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def test_tree_is_clean(capsys):
    assert lint.main([]) == 0
    assert capsys.readouterr().out == ""


def test_seeded_violation_exits_1_with_its_location(tmp_path, capsys):
    module = tmp_path / "mod.py"
    module.write_text("import os\n\ntry:\n    x = 1\nexcept:\n    x = 2\n")
    assert lint.main([str(module)]) == 1
    out = capsys.readouterr().out
    assert f"{module}:1: unused import 'os'" in out
    assert f"{module}:5: bare 'except:'" in out
    assert "2 lint finding(s)" in out


def test_in_repo_path_gets_only_its_rules():
    """An in-repo file is judged by the rules whose scope holds it: the
    engine builds optimizers, which only the engine rule would flag."""
    assert lint.main([str(ROOT / "src/repro/engine/loop.py")]) == 0


def test_missing_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.py"
    assert lint.main([str(missing)]) == 2
    assert f"error: no such file: {missing}" in capsys.readouterr().out


def test_each_file_is_parsed_once(monkeypatch):
    parsed = []
    real_parse = lint.ast.parse

    def counting_parse(source, filename="<unknown>", **kwargs):
        parsed.append(filename)
        return real_parse(source, filename=filename, **kwargs)

    monkeypatch.setattr(lint.ast, "parse", counting_parse)
    assert lint.main([]) == 0
    assert parsed and len(parsed) == len(set(parsed))
    assert str(lint.SERVER_PATH) in parsed
