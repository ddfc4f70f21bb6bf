"""Module-to-test mapping lint for ``src/repro``.

Every module under ``src/repro`` must have a corresponding test file:

* ``src/repro/<pkg>/<mod>.py``  ->  ``tests/<pkg>/test_<mod>.py``
* ``src/repro/<mod>.py``        ->  ``tests/test_<mod>.py``

Modules whose tests live elsewhere (one test file covering a family of
modules) declare it in ``COVERED_BY``; the declared file must exist, so a
renamed test cannot silently orphan its modules.  ``ALLOWLIST`` holds the
short list of modules that legitimately have no test file.  Adding a new
module under ``src/repro`` without a test (or an explicit entry here)
fails the suite via ``tests/test_lint_test_map.py``.

Run standalone: ``python tools/check_test_map.py``; exits non-zero on
violations.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"

#: Modules tested by a file other than the default-convention one.
#: Keys/values are repo-relative POSIX paths.
COVERED_BY: Dict[str, str] = {
    # One behavioural suite covers the whole method family.
    "src/repro/baselines/afgrl.py": "tests/baselines/test_methods.py",
    "src/repro/baselines/bgrl.py": "tests/baselines/test_methods.py",
    "src/repro/baselines/deepwalk.py": "tests/baselines/test_methods.py",
    "src/repro/baselines/dgi.py": "tests/baselines/test_methods.py",
    "src/repro/baselines/e2gcl_method.py": "tests/baselines/test_methods.py",
    "src/repro/baselines/gae.py": "tests/baselines/test_methods.py",
    "src/repro/baselines/gca.py": "tests/baselines/test_methods.py",
    "src/repro/baselines/grace.py": "tests/baselines/test_methods.py",
    "src/repro/baselines/graphcl.py": "tests/baselines/test_methods.py",
    "src/repro/baselines/mvgrl.py": "tests/baselines/test_methods.py",
    # Engine internals are exercised through the loop / checkpoint suites.
    "src/repro/engine/history.py": "tests/engine/test_loop.py",
    "src/repro/engine/hooks.py": "tests/engine/test_loop.py",
    "src/repro/engine/rng.py": "tests/engine/test_checkpoint.py",
    "src/repro/engine/step.py": "tests/engine/test_loop.py",
    # Evaluation protocols share one suite (the timed-curve container has
    # its own conventional file, tests/eval/test_protocol.py).
    "src/repro/eval/graph_classification.py": "tests/eval/test_protocols.py",
    "src/repro/eval/link_prediction.py": "tests/eval/test_protocols.py",
    "src/repro/eval/node_classification.py": "tests/eval/test_protocols.py",
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
ALLOWLIST = {
    "src/repro/__main__.py",  # two-line ``python -m repro`` shim
}


def expected_test_path(module: Path) -> Path:
    """Default-convention test file for ``module`` (absolute path)."""
    rel = module.relative_to(SRC)
    if len(rel.parts) == 1:
        return TESTS / f"test_{rel.stem}.py"
    return TESTS.joinpath(*rel.parts[:-1]) / f"test_{rel.stem}.py"


def check_map() -> List[str]:
    """Return one problem string per unmapped or mis-mapped module."""
    problems: List[str] = []
    for module in sorted(SRC.rglob("*.py")):
        if module.name == "__init__.py":
            continue
        rel = module.relative_to(ROOT).as_posix()
        if rel in ALLOWLIST:
            continue
        if rel in COVERED_BY:
            target = ROOT / COVERED_BY[rel]
            if not target.is_file():
                problems.append(
                    f"{rel}: COVERED_BY target {COVERED_BY[rel]} does not exist"
                )
            continue
        expected = expected_test_path(module)
        if not expected.is_file():
            problems.append(
                f"{rel}: no test file {expected.relative_to(ROOT).as_posix()} "
                f"(add it, or map the module in tools/check_test_map.py)"
            )
    for rel in sorted(set(COVERED_BY) | ALLOWLIST):
        if not (ROOT / rel).is_file():
            problems.append(f"stale mapping entry: {rel} does not exist")
    return problems


def main() -> int:
    problems = check_map()
    for line in problems:
        print(line)
    if problems:
        print(f"{len(problems)} unmapped module(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
