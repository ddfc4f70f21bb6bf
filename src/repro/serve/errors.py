"""Structured serving errors.

Every failure a query can trigger maps to one exception class with a
stable machine-readable ``code`` and an HTTP-ish ``status``, so both the
in-process client and the HTTP endpoint return the same error shape:

``{"ok": False, "error": {"code": ..., "message": ..., "details": {...}}}``

The server front end maps :class:`ServeError` to its envelope directly;
anything else is a server bug and is wrapped by :func:`internal_error`
into a 500 envelope carrying the exception *type* but never a traceback —
no raw stack ever crosses the transport (``tools/lint.py`` lints the op
dispatchers for this).

Overload and deadline failures are first-class: an ``overloaded`` envelope
carries ``retry_after_ms`` so well-behaved clients back off instead of
hammering a saturated server, and ``deadline_exceeded`` names the stage
(``admission``/``dequeue``/``pre_encode``) where the budget ran out.
"""

from __future__ import annotations

from typing import Dict


class ServeError(Exception):
    """Base class for query-level failures (client-attributable)."""

    code = "serve_error"
    status = 400

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details: Dict[str, object] = details


class MalformedQueryError(ServeError):
    """Payload is not a dict, misses required fields, or has bad types."""

    code = "malformed_query"
    status = 400


class UnknownOpError(ServeError):
    """The requested operation is not one the server exposes."""

    code = "unknown_op"
    status = 400


class UnknownNodeError(ServeError):
    """A node id is outside the served graph (or duplicated in a splice)."""

    code = "unknown_node"
    status = 404


class StaleVersionError(ServeError):
    """The requested model version is not (or no longer) registered."""

    code = "stale_version"
    status = 409


class ModelNotFoundError(ServeError):
    """No loadable checkpoint at the requested path."""

    code = "model_not_found"
    status = 404


class OverloadedError(ServeError):
    """Admission control shed this request (token bucket or queue gate).

    ``details["retry_after_ms"]`` is the server's backoff suggestion;
    retry-aware clients honor it before the next attempt.
    """

    code = "overloaded"
    status = 503

    def __init__(self, message: str, retry_after_ms: float = 50.0, **details):
        super().__init__(message, retry_after_ms=float(retry_after_ms),
                         **details)
        self.retry_after_ms = float(retry_after_ms)


class NotReadyError(ServeError):
    """The server is not accepting work (warming up or draining)."""

    code = "not_ready"
    status = 503


class DeadlineExceededError(ServeError):
    """The request's ``deadline_ms`` budget expired before completion.

    ``details["stage"]`` names where the budget ran out; expired work is
    dropped at that stage, never computed.
    """

    code = "deadline_exceeded"
    status = 504

    def __init__(self, message: str, stage: str = "admission", **details):
        super().__init__(message, stage=stage, **details)
        self.stage = stage


class SnapshotError(ServeError):
    """An embedding snapshot could not be loaded *or* recomputed."""

    code = "snapshot_failed"
    status = 500


class RolloutError(ServeError):
    """A rollout operation is invalid in the current state (or failed)."""

    code = "rollout_failed"
    status = 409


def error_response(exc: ServeError) -> dict:
    """The canonical JSON error envelope for a :class:`ServeError`."""
    return {
        "ok": False,
        "error": {
            "code": exc.code,
            "message": str(exc),
            "details": exc.details,
        },
        "status": exc.status,
    }


def internal_error(exc: BaseException) -> dict:
    """The 500 envelope for a non-:class:`ServeError` escaping an op.

    Deliberately carries only the exception type and message — the
    traceback stays server-side (in the obs event stream), never on the
    wire.
    """
    return {
        "ok": False,
        "error": {
            "code": "internal",
            "message": f"internal server error ({type(exc).__name__})",
            "details": {"type": type(exc).__name__},
        },
        "status": 500,
    }
