"""Wire the serve-envelope check of ``tools/lint.py`` into the suite.

The serving dispatch layer may only raise :class:`ServeError` subclasses
defined in ``repro/serve/errors.py`` — that is what guarantees every
client-visible failure is a structured envelope, not a traceback.  The
lint also keeps the ``OPS`` table and the ``_op_*`` dispatchers in exact
agreement.
"""

import textwrap

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


FAKE_ERRORS = textwrap.dedent(
    """
    class ServeError(Exception):
        pass

    class BoomError(ServeError):
        pass

    class NestedError(BoomError):
        pass
    """
)


def _write(tmp_path, errors_src, server_src):
    errors_path = tmp_path / "errors.py"
    server_path = tmp_path / "server.py"
    errors_path.write_text(errors_src)
    server_path.write_text(textwrap.dedent(server_src))
    return server_path, errors_path


def test_real_server_is_clean():
    assert lint.check_envelopes() == []


def test_error_registry_includes_resilience_codes():
    names = lint.serve_error_classes()
    assert {"OverloadedError", "NotReadyError", "DeadlineExceededError",
            "SnapshotError", "RolloutError"} <= names


def test_transitive_subclasses_are_allowed(tmp_path):
    server_path, errors_path = _write(
        tmp_path, FAKE_ERRORS,
        """
        class EmbeddingServer:
            OPS = {"embed": "_op_embed"}

            def _op_embed(self, request, version_id, deadline):
                raise NestedError("fine: subclass of a subclass")
        """,
    )
    assert lint.check_envelopes(server_path, errors_path) == []


def test_flags_non_serve_error_raise(tmp_path):
    server_path, errors_path = _write(
        tmp_path, FAKE_ERRORS,
        """
        class EmbeddingServer:
            OPS = {"embed": "_op_embed"}

            def _op_embed(self, request, version_id, deadline):
                raise ValueError("raw")
        """,
    )
    findings = lint.check_envelopes(server_path, errors_path)
    assert len(findings) == 1 and "ValueError" in findings[0]


def test_flags_bare_raise(tmp_path):
    server_path, errors_path = _write(
        tmp_path, FAKE_ERRORS,
        """
        class EmbeddingServer:
            OPS = {"embed": "_op_embed"}

            def _op_embed(self, request, version_id, deadline):
                try:
                    return {}
                except KeyError:
                    raise
        """,
    )
    findings = lint.check_envelopes(server_path, errors_path)
    assert len(findings) == 1 and "bare 'raise'" in findings[0]


def test_flags_op_with_missing_method(tmp_path):
    server_path, errors_path = _write(
        tmp_path, FAKE_ERRORS,
        """
        class EmbeddingServer:
            OPS = {"embed": "_op_embed", "ghost": "_op_ghost"}

            def _op_embed(self, request, version_id, deadline):
                return {}
        """,
    )
    findings = lint.check_envelopes(server_path, errors_path)
    assert len(findings) == 1 and "_op_ghost" in findings[0]


def test_flags_orphan_dispatcher(tmp_path):
    server_path, errors_path = _write(
        tmp_path, FAKE_ERRORS,
        """
        class EmbeddingServer:
            OPS = {"embed": "_op_embed"}

            def _op_embed(self, request, version_id, deadline):
                return {}

            def _op_orphan(self, request, version_id, deadline):
                return {}
        """,
    )
    findings = lint.check_envelopes(server_path, errors_path)
    assert len(findings) == 1 and "_op_orphan" in findings[0]


def test_helpers_are_checked_too(tmp_path):
    server_path, errors_path = _write(
        tmp_path, FAKE_ERRORS,
        """
        class EmbeddingServer:
            OPS = {"embed": "_op_embed"}

            def _op_embed(self, request, version_id, deadline):
                return {}

            def _dispatch(self, op, version_id, request, deadline):
                raise RuntimeError("raw in helper")
        """,
    )
    findings = lint.check_envelopes(server_path, errors_path)
    assert len(findings) == 1 and "RuntimeError" in findings[0]
