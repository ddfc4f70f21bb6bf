"""Repository lint: one table of AST rules, one parse per file.

The rules keep the reproduction comparable across methods: training goes
through ``repro.engine.TrainLoop``, layers use the fused kernels, losses
are composed in ``repro.contrast``, no failure is swallowed silently,
every serve failure is a structured envelope, and every ``src/repro``
module has a test file.

Each per-file rule is one row of ``RULES``: the paths it applies to and
those it exempts (``fnmatch`` patterns over repo-relative POSIX paths),
and a check that takes a parsed module and yields ``(lineno, message)``.
A file outside the repository has no scope to judge it by, so every rule
applies to it bar pattern exemptions.  The serve envelope check and the
module-to-test map read the repository's shape; they run once per
no-argument invocation.

Usage: ``python tools/lint.py [paths...]`` (no paths: all of ``src/`` plus
the shape rules).  Exits 0 clean, 1 on findings, 2 on a missing path.
"""

from __future__ import annotations

import ast
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"
SERVER_PATH = SRC / "serve" / "server.py"
ERRORS_PATH = SRC / "serve" / "errors.py"

Finding = Tuple[int, str]
Trees = Dict[Path, ast.Module]


def parse(path: Path, trees: Optional[Trees] = None) -> ast.Module:
    """``path``'s AST, parsed at most once per ``trees`` cache."""
    trees = {} if trees is None else trees
    if path not in trees:
        trees[path] = ast.parse(path.read_text(), filename=str(path))
    return trees[path]


def _terminal(expr: ast.AST) -> str:
    """The last identifier of a name or attribute chain (``ops.exp`` -> ``exp``)."""
    return getattr(expr, "attr", None) or getattr(expr, "id", None) or ""


def _called_name(node: ast.AST) -> str:
    """The terminal identifier of a call's callee, ``""`` for a non-call."""
    return _terminal(node.func) if isinstance(node, ast.Call) else ""


def _calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node, _called_name(node)


# -- unused imports ---------------------------------------------------------
# An import is used if its bound name appears elsewhere as a ``Name`` load
# (attribute chains count through their root).  ``__init__.py`` files are
# exempt — their imports exist to re-export — and names in a literal
# ``__all__`` count as used.

def _bound_names(node: ast.AST) -> List[Tuple[str, int]]:
    """(name, lineno) pairs an import statement binds into the namespace."""
    if isinstance(node, ast.Import):
        # ``import a.b.c`` binds the root ``a``; ``import a.b as c`` binds c.
        return [(a.asname or a.name.split(".")[0], node.lineno)
                for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [(a.asname or a.name, node.lineno)
                for a in node.names if a.name != "*"]
    return []


def check_imports(tree: ast.Module) -> Iterator[Finding]:
    imports: List[Tuple[str, int]] = []
    # Start from the names a literal module-level ``__all__`` exports.
    used = {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
            for elt in node.value.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    for node in ast.walk(tree):
        imports.extend(_bound_names(node))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
    for name, lineno in imports:
        if name not in used:
            yield lineno, f"unused import {name!r}"


# -- engine adoption --------------------------------------------------------
# ``repro.engine.TrainLoop`` owns optimizer construction for every
# pre-training method.  Exempt: the engine itself, ``repro.autograd`` (where
# the optimizers live) and the linear-eval probe in ``nn/decoders.py``,
# which is an evaluation detail and deliberately a tight closed loop.

OPTIMIZER_NAMES = ("Adam", "AdamW", "SGD")


def check_optimizers(tree: ast.Module) -> Iterator[Finding]:
    for node, name in _calls(tree):
        if name in OPTIMIZER_NAMES:
            yield node.lineno, (
                f"direct {name}(...) construction; "
                f"drive training through repro.engine.TrainLoop instead")


# -- fused-kernel adoption --------------------------------------------------
# ``spmm_bias_act`` and ``linear_act`` are bit-identical to the op-by-op
# ``activation(spmm/matmul (+ b))`` chains but skip the intermediates, so
# model code must use them.  An add that wraps no spmm/matmul (GAT's
# ``leaky_relu(add(score_src, score_dst))``) has no fused form and passes.

ACTIVATION_NAMES = ("relu", "leaky_relu", "elu", "tanh", "sigmoid")

#: Inner ops that have a fused activation form, and the kernel to use.
FUSABLE_INNER = {"spmm": "spmm_bias_act", "matmul": "linear_act"}


def _fusable_inner(node: ast.expr) -> Optional[str]:
    """The fused kernel replacing ``node`` if it is a raw propagate/linear
    expression: an spmm/matmul call, bare, under ``add(...)`` or ``+``."""
    name = _called_name(node)
    if name in FUSABLE_INNER:
        return FUSABLE_INNER[name]
    if name == "add":
        operands = node.args
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        operands = [node.left, node.right]
    else:
        return None
    for operand in operands:
        inner = _called_name(operand)
        if inner in FUSABLE_INNER:
            return FUSABLE_INNER[inner]
    return None


def check_fused(tree: ast.Module) -> Iterator[Finding]:
    for node, activation in _calls(tree):
        if activation not in ACTIVATION_NAMES or not node.args:
            continue
        kernel = _fusable_inner(node.args[0])
        if kernel is not None:
            yield node.lineno, (
                f"raw {activation}(...) over a fusable chain; use "
                f"ops.{kernel}(..., activation={activation!r}) instead")


# -- contrast adoption ------------------------------------------------------
# ``repro.contrast`` is the one home of contrastive objectives, composed as
# Objective x Mode x NegativeSampler.  A ``logsumexp`` call, or exp/log over
# a similarity-producing call, is a hand-rolled loss.  exp/log over anything
# else (VGAE's reparameterisation, the edge-score table) passes.

SIMILARITY_CALLS = ("matmul", "normalize_cosine_sim_gather",
                    "normalize_cosine_rowwise", "bilinear_scores")


def check_contrast(tree: ast.Module) -> Iterator[Finding]:
    for node, name in _calls(tree):
        if name == "logsumexp":
            yield node.lineno, (
                f"{name}(...) is a dense-InfoNCE denominator; compose the "
                f"loss through repro.contrast instead")
        elif name in ("exp", "log") and node.args:
            inner = next((n for _, n in _calls(node.args[0])
                          if n in SIMILARITY_CALLS), "")
            if inner:
                yield node.lineno, (
                    f"{name}(...) over a {inner}(...) similarity is an inline "
                    f"contrastive loss; compose it through repro.contrast instead")


# -- silent exceptions ------------------------------------------------------
# A handler that catches everything and does nothing turns a loud failure
# into a wrong number three modules later.  Banned: a bare ``except:``, and
# ``except Exception``/``BaseException`` (alone or in a tuple) whose body is
# only ``pass``/``...``/string literals.  Narrow silent handlers are legal.

def _is_broad(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Tuple):
        return any(_is_broad(elt) for elt in expr.elts)
    return _terminal(expr) in ("Exception", "BaseException")


def check_silent_except(tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node.lineno, ("bare 'except:' (catches KeyboardInterrupt/"
                                "SystemExit; name the exception)")
        elif _is_broad(node.type) and all(  # only pass / ... / string literals
                isinstance(stmt, ast.Pass)
                or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
                for stmt in node.body):
            yield node.lineno, (
                f"broad '{ast.unparse(node.type)}' handler with an empty "
                f"body silently swallows every failure")


# -- the table --------------------------------------------------------------

class Rule(NamedTuple):
    scope: Tuple[str, ...]
    exempt: Tuple[str, ...]
    check: Callable[[ast.Module], Iterable[Finding]]

    def applies(self, rel: Optional[str], path: Path) -> bool:
        """Whether this rule judges ``path`` (``rel`` is None outside ROOT)."""
        name = rel if rel is not None else path.as_posix()
        return (not any(fnmatchcase(name, p) for p in self.exempt)
                and (rel is None or any(fnmatchcase(rel, p) for p in self.scope)))


RULES: Dict[str, Rule] = {
    "imports": Rule(("src/*",), ("*/__init__.py",), check_imports),
    "engine": Rule(("src/*",), ("src/repro/engine/*", "src/repro/autograd/*",
                                "src/repro/nn/decoders.py"),
                   check_optimizers),
    "fused": Rule(("src/repro/nn/*", "src/repro/baselines/*",
                   "src/repro/scale/*", "src/repro/serve/*"), (), check_fused),
    "contrast": Rule(("src/repro/core/*", "src/repro/baselines/*"), (),
                     check_contrast),
    "silent-except": Rule(("src/*",), (), check_silent_except),
}


def _rel(path: Path) -> Optional[str]:
    """``path`` relative to the repository root, None outside it."""
    path = path.resolve()
    return path.relative_to(ROOT).as_posix() if path.is_relative_to(ROOT) else None


def check_file(path: Path, rules: Optional[Iterable[Rule]] = None,
               trees: Optional[Trees] = None) -> List[str]:
    """``path:line: message`` findings of the rules (default: all) that apply."""
    rel = _rel(path)
    applicable = [rule for rule in (RULES.values() if rules is None else rules)
                  if rule.applies(rel, path)]
    tree = parse(path, trees) if applicable else None
    shown = rel if rel is not None else str(path)
    return [f"{shown}:{lineno}: {message}"
            for rule in applicable for lineno, message in rule.check(tree)]


# -- serve envelopes (shape rule) -------------------------------------------
# Every client-visible serve failure is a structured envelope: a raise in an
# ``_op_*`` dispatcher or dispatch helper must construct a ServeError subclass
# from errors.py, never re-raise bare.  ``OPS`` and the ``_op_*`` methods
# must agree — an op with no method is a guaranteed internal 500, a method
# outside the table is dead code the envelope meta-test never exercises.

#: Methods that run between ``handle`` and the ``_op_*`` dispatchers —
#: their raises are client-visible too, so they obey the same rule.
HELPER_METHODS = ("_dispatch", "_parse_deadline", "_embedding_for")


def serve_error_classes(errors_path: Path = ERRORS_PATH,
                        trees: Optional[Trees] = None) -> Set[str]:
    """Names of ``ServeError`` and every (transitive) subclass in errors.py."""
    bases = {node.name: {_terminal(base) for base in node.bases}
             for node in ast.walk(parse(errors_path, trees))
             if isinstance(node, ast.ClassDef)}
    known = {"ServeError"}
    while True:
        grown = known | {name for name, of in bases.items() if of & known}
        if grown == known:
            return known
        known = grown


def _raised_name(node: ast.Raise) -> Optional[str]:
    """Class name a ``raise`` constructs, ``None`` for a bare raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return None if exc is None else _terminal(exc) or "<expression>"


def _ops_table(cls: ast.ClassDef) -> Optional[ast.Dict]:
    for stmt in cls.body:
        targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
        if (isinstance(stmt, (ast.Assign, ast.AnnAssign))
                and any(isinstance(t, ast.Name) and t.id == "OPS" for t in targets)
                and isinstance(stmt.value, ast.Dict)):
            return stmt.value
    return None


def check_envelopes(server_path: Path = SERVER_PATH,
                    errors_path: Path = ERRORS_PATH,
                    trees: Optional[Trees] = None) -> List[str]:
    """``path:line: message`` findings for the serve dispatch layer."""
    allowed = serve_error_classes(errors_path, trees)
    rel = _rel(server_path) or str(server_path)
    server_cls = next((node for node in ast.walk(parse(server_path, trees))
                       if isinstance(node, ast.ClassDef)
                       and node.name == "EmbeddingServer"), None)
    if server_cls is None:
        return [f"{rel}:1: no EmbeddingServer class found"]
    problems: List[str] = []
    methods = {stmt.name: stmt for stmt in server_cls.body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
    ops = _ops_table(server_cls)
    if ops is None:
        problems.append(
            f"{rel}:{server_cls.lineno}: EmbeddingServer has no literal OPS "
            "table (op -> method dict)")
    mapped: Set[str] = set()
    for key, value in zip(ops.keys, ops.values) if ops else ():
        op = key.value if isinstance(key, ast.Constant) else None
        target = value.value if isinstance(value, ast.Constant) else None
        if not isinstance(op, str) or not isinstance(target, str):
            problems.append(
                f"{rel}:{key.lineno}: OPS entries must be string literals")
            continue
        mapped.add(target)
        if target not in methods:
            problems.append(
                f"{rel}:{key.lineno}: op {op!r} maps to missing method "
                f"{target!r} — every request for it becomes an internal 500")
    for name in sorted(methods):
        if name.startswith("_op_") and name not in mapped:
            problems.append(
                f"{rel}:{methods[name].lineno}: dispatcher {name!r} is not in "
                "the OPS table — unreachable and unlinted by the envelope "
                "meta-test")
        if not (name.startswith("_op_") or name in HELPER_METHODS):
            continue
        for node in ast.walk(methods[name]):
            if not isinstance(node, ast.Raise):
                continue
            raised = _raised_name(node)
            if raised is None:
                problems.append(
                    f"{rel}:{node.lineno}: bare 'raise' in {name!r} re-raises "
                    "an arbitrary exception across the dispatch layer")
            elif raised not in allowed:
                problems.append(
                    f"{rel}:{node.lineno}: {name!r} raises {raised}, which is "
                    "not a ServeError subclass from errors.py — clients "
                    "would see an anonymous internal 500")
    return problems


# -- module-to-test map (shape rule) ----------------------------------------
# ``src/repro/[<pkg>/]<mod>.py`` -> ``tests/[<pkg>/]test_<mod>.py``.  A module
# tested elsewhere declares the file in ``COVERED_BY``; the file must exist,
# so a renamed test cannot silently orphan its modules.

#: Modules tested by a file other than the default-convention one.
COVERED_BY: Dict[str, str] = {
    # One behavioural suite covers the whole method family.
    **dict.fromkeys(
        [f"src/repro/baselines/{name}.py" for name in (
            "afgrl", "bgrl", "deepwalk", "dgi", "e2gcl_method", "gae", "gca",
            "grace", "graphcl", "mvgrl")],
        "tests/baselines/test_methods.py"),
    # Engine internals are exercised through the loop / checkpoint suites.
    **dict.fromkeys([f"src/repro/engine/{name}.py" for name in (
        "history", "hooks", "step")], "tests/engine/test_loop.py"),
    "src/repro/engine/rng.py": "tests/engine/test_checkpoint.py",
    # Evaluation protocols share one suite (the timed-curve container has
    # its own conventional file, tests/eval/test_protocol.py).
    **dict.fromkeys([f"src/repro/eval/{name}.py" for name in (
        "graph_classification", "link_prediction", "node_classification")],
        "tests/eval/test_protocols.py"),
    # The serve error taxonomy is pinned by the server's envelope table.
    "src/repro/serve/errors.py": "tests/serve/test_server.py",
    # Initializers are exercised through module construction.
    "src/repro/autograd/init.py": "tests/autograd/test_module.py",
    # The E2GCL facade is covered by its save/load round-trip suite.
    "src/repro/core/model.py": "tests/core/test_serialization.py",
    # Bench harness + experiment registry share a suite.
    "src/repro/bench/harness.py": "tests/test_bench_harness.py",
    "src/repro/bench/registry.py": "tests/test_bench_harness.py",
}

#: Modules with no test file at all (keep this list short and justified).
UNTESTED = {"src/repro/__main__.py"}  # two-line ``python -m repro`` shim


def expected_test_path(module: Path) -> Path:
    """Default-convention test file for ``module`` (absolute path)."""
    rel = module.relative_to(SRC)
    return TESTS.joinpath(*rel.parts[:-1]) / f"test_{rel.stem}.py"


def check_test_map() -> List[str]:
    """One problem string per unmapped or mis-mapped module."""
    problems: List[str] = []
    for module in sorted(SRC.rglob("*.py")):
        rel = module.relative_to(ROOT).as_posix()
        if module.name == "__init__.py" or rel in UNTESTED:
            continue
        if rel in COVERED_BY:
            if not (ROOT / COVERED_BY[rel]).is_file():
                problems.append(
                    f"{rel}: COVERED_BY target {COVERED_BY[rel]} does not exist")
            continue
        expected = expected_test_path(module)
        if not expected.is_file():
            problems.append(
                f"{rel}: no test file {expected.relative_to(ROOT).as_posix()} "
                f"(add it, or map the module in tools/lint.py)")
    for rel in sorted(set(COVERED_BY) | UNTESTED):
        if not (ROOT / rel).is_file():
            problems.append(f"stale mapping entry: {rel} does not exist")
    return problems


def main(paths: Optional[List[str]] = None) -> int:
    targets = ([Path(p) for p in paths] if paths
               else sorted((ROOT / "src").rglob("*.py")))
    for path in targets:
        if not path.is_file():
            print(f"error: no such file: {path}")
            return 2
    trees: Trees = {}
    problems = [line for path in targets for line in check_file(path, trees=trees)]
    if not paths:
        problems += check_envelopes(trees=trees) + check_test_map()
    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} lint finding(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
