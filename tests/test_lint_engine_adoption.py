"""Wire the ``engine`` rule of ``tools/lint.py`` into the suite.

Every pre-training method must drive its optimization through
``repro.engine.TrainLoop`` — no module outside the engine (and the
linear-eval decoder) may construct ``Adam``/``AdamW``/``SGD`` directly.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _check(path):
    return lint.check_file(path, [lint.RULES["engine"]])


def test_src_has_no_handrolled_optimizers():
    findings = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        findings.extend(_check(path))
    assert not findings, "hand-rolled optimizers:\n" + "\n".join(findings)


def test_detects_direct_adam(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import Adam\n\nopt = Adam(params, lr=0.01)\n"
    )
    findings = _check(module)
    assert len(findings) == 1 and "Adam" in findings[0]


def test_detects_attribute_chain_sgd(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import repro.autograd as optim\n\nopt = optim.SGD(params)\n")
    findings = _check(module)
    assert len(findings) == 1 and "SGD" in findings[0]


def test_engine_and_decoders_are_exempt():
    for rel in ("src/repro/engine/loop.py", "src/repro/nn/decoders.py"):
        path = ROOT / rel
        assert path.is_file(), rel
        assert _check(path) == []


def test_unrelated_calls_pass(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def run(loop):\n    return loop.run()\n")
    assert _check(module) == []
