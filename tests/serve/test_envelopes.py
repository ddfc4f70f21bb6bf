"""Registry-walking envelope meta-test.

Walks ``EmbeddingServer.OPS`` — not a hand-maintained list — so every op
added to the server is automatically held to the contract: *any* failure,
client-attributable or a server bug, crosses the transport as a
structured envelope (``ok``/``error.code``/``error.message``/``details``/
``status``) and never as a raw python traceback.
"""

import json

import pytest

from repro.serve import EmbeddingServer, InProcessClient

#: Fields that make an envelope an envelope.
_ENVELOPE_KEYS = {"ok", "error", "status"}


@pytest.fixture
def server(registry, tiny_cora):
    with EmbeddingServer(registry, tiny_cora) as srv:
        yield srv


@pytest.fixture
def client(server):
    with InProcessClient(server) as cli:
        yield cli


def _assert_envelope(response, code=None):
    assert _ENVELOPE_KEYS <= set(response)
    assert response["ok"] is False
    assert isinstance(response["status"], int)
    error = response["error"]
    assert set(error) == {"code", "message", "details"}
    assert isinstance(error["code"], str) and isinstance(error["message"], str)
    assert isinstance(error["details"], dict)
    if code is not None:
        assert error["code"] == code
    wire = json.dumps(response)
    assert "Traceback" not in wire
    return error


def test_every_op_maps_to_a_dispatcher():
    for op, method_name in EmbeddingServer.OPS.items():
        assert method_name.startswith("_op_")
        assert callable(getattr(EmbeddingServer, method_name)), (op, method_name)


@pytest.mark.parametrize("op", sorted(EmbeddingServer.OPS))
def test_dispatcher_bug_becomes_internal_envelope(server, client, op):
    """A RuntimeError escaping ANY op must come back as a structured 500
    carrying the exception type — never the traceback, never a dead
    transport thread."""

    def exploding_op(request, version_id, deadline):
        raise RuntimeError("secret server-side detail")

    setattr(server, EmbeddingServer.OPS[op], exploding_op)
    response = client.request({"op": op})
    error = _assert_envelope(response, code="internal")
    assert response["status"] == 500
    assert error["details"] == {"type": "RuntimeError"}
    # The message names the type but must not leak the server-side detail.
    assert "secret" not in json.dumps(response)
    assert server.metrics.errors.get("internal", 0) >= 1


@pytest.mark.parametrize("op", sorted(EmbeddingServer.OPS))
def test_bad_version_type_is_structured_for_every_op(client, op):
    response = client.request({"op": op, "version": 123})
    _assert_envelope(response, code="malformed_query")


@pytest.mark.parametrize("op", sorted(EmbeddingServer.OPS))
def test_bad_deadline_type_is_structured_for_every_op(client, op):
    response = client.request({"op": op, "deadline_ms": "soon"})
    _assert_envelope(response, code="malformed_query")


@pytest.mark.parametrize(
    "payload, code",
    [
        ([1, 2, 3], "malformed_query"),            # not an object
        ({}, "malformed_query"),                   # no op
        ({"op": 7}, "malformed_query"),            # non-string op
        ({"op": "explode"}, "unknown_op"),         # unknown op
        ({"op": "embed"}, "malformed_query"),      # embed without target
        ({"op": "embed", "node": 10**9}, "unknown_node"),
        ({"op": "embed", "node": 0, "version": "ghost-1"}, "stale_version"),
        ({"op": "neighbors"}, "malformed_query"),
        ({"op": "rollout"}, "malformed_query"),    # no candidate
        ({"op": "rollback"}, "rollout_failed"),    # nothing in flight
        ({"op": "embed", "node": 0, "deadline_ms": -5}, "malformed_query"),
    ],
)
def test_bad_payloads_never_raise(client, payload, code):
    _assert_envelope(client.request(payload), code=code)


def test_unknown_op_advertises_the_full_registry(client):
    response = client.request({"op": "explode"})
    assert response["error"]["details"]["available"] == sorted(
        EmbeddingServer.OPS)


def test_success_responses_echo_op_and_ok(client):
    for op in ("models", "stats", "health", "ready", "rollout_status"):
        response = client.request({"op": op})
        assert response["ok"] is True and response["op"] == op
