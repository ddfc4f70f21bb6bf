"""Fused-kernel adoption lint: no raw propagate/linear chains in models.

The autograd layer ships fused kernels for the two hottest compositions —
``spmm_bias_act`` (``activation(spmm(A, X) + b)``, the GCN propagate) and
``linear_act`` (``activation(X W + b)``, the MLP layer).  They are
bit-identical to the op-by-op chains but skip the intermediate arrays and
graph nodes, so model code must use them.  This AST lint fails when a
module under ``src/repro/nn/``, ``src/repro/baselines/``,
``src/repro/scale/`` or ``src/repro/serve/`` spells the chain out by
hand: an activation call (``relu``/``leaky_relu``/``elu``/``tanh``/
``sigmoid``) applied directly to an ``spmm``/``matmul`` result,
optionally with an ``add``/``+`` bias in between.

Compositions where the add does *not* wrap an ``spmm``/``matmul`` (e.g.
GAT's ``leaky_relu(add(score_src, score_dst), slope)``) have no fused
counterpart and pass.

Run standalone (``python tools/check_fused_adoption.py``) or via the test
suite (``tests/test_lint_fused_adoption.py``); exits non-zero on findings.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Directories whose modules must use the fused kernels.
CHECKED_DIRS = (
    "src/repro/nn",
    "src/repro/baselines",
    "src/repro/scale",
    "src/repro/serve",
)

ACTIVATION_NAMES = ("relu", "leaky_relu", "elu", "tanh", "sigmoid")

#: Inner ops that have a fused activation form, and the kernel to use.
FUSABLE_INNER = {"spmm": "spmm_bias_act", "matmul": "linear_act"}


def _called_name(node: ast.expr) -> str:
    """The terminal identifier of a call's callee (``ops.spmm`` -> ``spmm``)."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _fusable_inner(node: ast.expr) -> Optional[str]:
    """The fused kernel replacing ``node`` if it is a raw propagate/linear
    expression (an ``spmm``/``matmul`` call, bare or under an ``add``)."""
    name = _called_name(node)
    if name in FUSABLE_INNER:
        return FUSABLE_INNER[name]
    # add(spmm(...), b) / add(b, matmul(...)) — either operand order.
    if name == "add" and isinstance(node, ast.Call):
        for arg in node.args:
            inner = _called_name(arg)
            if inner in FUSABLE_INNER:
                return FUSABLE_INNER[inner]
    # spmm(...) + b / b + matmul(...) via operator overloading.
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        for side in (node.left, node.right):
            inner = _called_name(side)
            if inner in FUSABLE_INNER:
                return FUSABLE_INNER[inner]
    return None


def check_file(path: Path) -> List[str]:
    """Return ``"path:line: msg"`` entries for hand-spelled fusable chains."""
    try:
        rel = path.relative_to(ROOT)
    except ValueError:
        rel = path
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        activation = _called_name(node)
        if activation not in ACTIVATION_NAMES:
            continue
        kernel = _fusable_inner(node.args[0])
        if kernel is not None:
            problems.append(
                f"{rel}:{node.lineno}: raw {activation}(...) over a fusable "
                f"chain; use ops.{kernel}(..., activation={activation!r}) instead"
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
        print(f"{len(problems)} unfused propagate/linear chain(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or None))
