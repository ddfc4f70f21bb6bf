"""Wire the ``fused`` rule of ``tools/lint.py`` into the suite.

Model code under ``src/repro/nn/`` and ``src/repro/baselines/`` must use
the fused autograd kernels (``spmm_bias_act``/``linear_act``) instead of
spelling out activation(spmm/matmul + bias) chains op by op.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _check(path):
    return lint.check_file(path, [lint.RULES["fused"]])


def test_models_have_no_unfused_chains():
    findings = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        findings.extend(_check(path))
    assert not findings, "unfused chains:\n" + "\n".join(findings)


def test_detects_relu_over_spmm_add(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "h = ops.relu(ops.add(ops.spmm(a, x), b))\n"
    )
    findings = _check(module)
    assert len(findings) == 1
    assert "spmm_bias_act" in findings[0]


def test_detects_bare_activation_over_matmul(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\nh = ops.tanh(ops.matmul(x, w))\n"
    )
    findings = _check(module)
    assert len(findings) == 1
    assert "linear_act" in findings[0]


def test_detects_operator_add_chain(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\nh = ops.elu(ops.spmm(a, x) + b)\n"
    )
    findings = _check(module)
    assert len(findings) == 1
    assert "spmm_bias_act" in findings[0]


def test_gat_attention_scores_are_not_flagged(tmp_path):
    """``leaky_relu(add(score_src, score_dst))`` has no fused counterpart."""
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "raw = ops.leaky_relu(ops.add(score_src, score_dst), 0.2)\n"
    )
    assert _check(module) == []


def test_activation_over_other_ops_passes(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "s = ops.sigmoid(ops.mean(h, axis=0, keepdims=True))\n"
    )
    assert _check(module) == []
