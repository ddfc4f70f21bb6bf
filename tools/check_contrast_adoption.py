"""Contrast-layer adoption lint: no inline similarity-loss construction.

``repro.contrast`` is the single home for contrastive objectives: the
exp/log partition-function machinery (InfoNCE denominators, logsumexp
shifts, BCE-over-similarity discriminators) lives there, composed through
``Objective`` × ``Mode`` × ``NegativeSampler``.  Method and trainer code
must call into that layer rather than re-spelling a loss by hand.

This AST lint fails when a module under ``src/repro/core/`` or
``src/repro/baselines/`` (``repro.contrast`` itself is exempt) shows the
signature of a hand-rolled similarity loss:

* any ``logsumexp`` call — the dense-InfoNCE denominator primitive, or
* an ``exp``/``log`` call whose argument expression contains a
  similarity-producing call (``matmul``, ``normalize_cosine_sim_gather``,
  ``normalize_cosine_rowwise``, ``bilinear_scores``) — i.e.
  exponentiating similarity scores inline.

Plain ``exp``/``log`` over non-similarity expressions passes: VGAE's
reparameterisation ``exp(logvar/2)``, DeepWalk's sigmoid helper, and the
edge-score table's ``exp`` over centrality+distance exponents are all
legitimate and untouched by this rule.

Run standalone (``python tools/check_contrast_adoption.py``) or via the
test suite (``tests/test_lint_contrast_adoption.py``); exits non-zero on
findings.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent

#: Directories whose modules must compose losses through repro.contrast.
CHECKED_DIRS = ("src/repro/core", "src/repro/baselines")

#: exp/log wrappers that indicate partition-function construction.
EXP_LOG_NAMES = ("exp", "log")

#: A logsumexp anywhere in loss-adjacent code is a dense-InfoNCE spelling.
LOGSUMEXP_NAMES = ("logsumexp",)

#: Calls that produce similarity scores; exp/log over these is a loss.
SIMILARITY_CALLS = (
    "matmul",
    "normalize_cosine_sim_gather",
    "normalize_cosine_rowwise",
    "bilinear_scores",
)


def _called_name(node: ast.expr) -> str:
    """The terminal identifier of a call's callee (``ops.exp`` -> ``exp``)."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _contains_similarity_call(node: ast.expr) -> str:
    """The first similarity-producing call name inside ``node``, or ``""``."""
    for sub in ast.walk(node):
        name = _called_name(sub)
        if name in SIMILARITY_CALLS:
            return name
    return ""


def check_file(path: Path) -> List[str]:
    """Return ``"path:line: msg"`` entries for inline similarity losses."""
    try:
        rel = path.relative_to(ROOT)
    except ValueError:
        rel = path
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name in LOGSUMEXP_NAMES:
            problems.append(
                f"{rel}:{node.lineno}: {name}(...) is a dense-InfoNCE "
                f"denominator; compose the loss through repro.contrast instead"
            )
            continue
        if name in EXP_LOG_NAMES and node.args:
            inner = _contains_similarity_call(node.args[0])
            if inner:
                problems.append(
                    f"{rel}:{node.lineno}: {name}(...) over a {inner}(...) "
                    f"similarity is an inline contrastive loss; compose it "
                    f"through repro.contrast instead"
                )
    return problems


def main(paths=None) -> int:
    if paths:
        targets = [Path(p) for p in paths]
    else:
        targets = [
            p for d in CHECKED_DIRS for p in sorted((ROOT / d).rglob("*.py"))
        ]
    problems: List[str] = []
    for path in targets:
        if not path.is_file():
            print(f"error: no such file: {path}")
            return 2
        problems.extend(check_file(path))
    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} inline similarity-loss construction(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or None))
