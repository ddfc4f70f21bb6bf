"""Wire the ``contrast`` rule of ``tools/lint.py`` into the suite.

Loss code under ``src/repro/core/`` and ``src/repro/baselines/`` must
compose contrastive objectives through ``repro.contrast`` instead of
hand-rolling exp/logsumexp partition functions over similarity matrices.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _check(path):
    return lint.check_file(path, [lint.RULES["contrast"]])


def test_loss_code_has_no_inline_similarity_losses():
    findings = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        findings.extend(_check(path))
    assert not findings, "inline similarity losses:\n" + "\n".join(findings)


def test_contrast_package_itself_is_exempt():
    """The objectives module legitimately builds partition functions; it
    must not be in the checked set."""
    rule = lint.RULES["contrast"]
    assert "src/repro/contrast/*" not in rule.scope
    assert all(not d.startswith("src/repro/contrast") for d in rule.scope)
    assert not rule.applies("src/repro/contrast/objectives.py",
                            ROOT / "src/repro/contrast/objectives.py")


def test_detects_logsumexp(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "den = ops.logsumexp(sims, axis=1)\n"
    )
    findings = _check(module)
    assert len(findings) == 1
    assert "logsumexp" in findings[0]


def test_detects_exp_over_matmul(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "den = ops.exp(ops.div(ops.matmul(a, ops.transpose(b)), t))\n"
    )
    findings = _check(module)
    assert len(findings) == 1
    assert "matmul" in findings[0]


def test_detects_log_over_gathered_similarity(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "ll = ops.log(ops.normalize_cosine_sim_gather(z1, z2, cols))\n"
    )
    findings = _check(module)
    assert len(findings) == 1
    assert "normalize_cosine_sim_gather" in findings[0]


def test_vgae_reparameterisation_passes(tmp_path):
    """exp over a non-similarity expression is not a loss."""
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "z = ops.add(mu, ops.mul(ops.exp(ops.mul(logvar, 0.5)), noise))\n"
    )
    assert _check(module) == []


def test_numpy_exp_over_plain_array_passes(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import numpy as np\n\nscores = beta * np.exp(exponent)\n"
    )
    assert _check(module) == []


def test_matmul_without_exp_log_passes(tmp_path):
    """Similarity computation alone is fine; only exponentiating it is a
    loss construction."""
    module = tmp_path / "mod.py"
    module.write_text(
        "from repro.autograd import ops\n\n"
        "sims = ops.matmul(a, ops.transpose(b))\n"
    )
    assert _check(module) == []
