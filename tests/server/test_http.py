"""HTTP/JSON endpoint smoke tests on an ephemeral port: the operator
surface (health, stats, tenant admit/steps/evict) and its error codes."""

from __future__ import annotations

import http.client
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.api.config import ServerSpec
from repro.server import SessionServer, serve
from repro.server import http as server_http


@pytest.fixture()
def endpoint():
    spec = ServerSpec(pool_budget_bytes=4 << 20, overcommit=1.0, port=0)
    with SessionServer(spec) as server, serve(server) as ep:
        yield ep


def call(ep, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(ep.url + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def raw_post(ep, content_length, body=b"", timeout=5.0):
    """POST /tenants over a raw socket with a hand-written
    ``Content-Length``; returns ``(socket, response)`` once the status
    line and headers are in.  The client timeout turns a server that
    never answers into a failure, not a hang."""
    sock = socket.create_connection((ep.host, ep.port), timeout=timeout)
    head = f"POST /tenants HTTP/1.1\r\nHost: {ep.host}\r\nContent-Length: {content_length}\r\n\r\n"
    sock.sendall(head.encode() + body)
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    return sock, resp


def tenant_body(name, seed=1, budget=1 << 20):
    return {
        "name": name,
        "model": "alexnet",
        "image_size": 12,
        "batch_size": 4,
        "seed": seed,
        "session": {"storage": {"activations": "arena", "budget_bytes": budget}},
    }


class TestEndpoint:
    def test_healthz(self, endpoint):
        code, body = call(endpoint, "GET", "/healthz")
        assert code == 200
        assert body["status"] == "ok"

    def test_admit_step_stats_evict_cycle(self, endpoint):
        code, body = call(endpoint, "POST", "/tenants", tenant_body("a"))
        assert (code, body["state"]) == (201, "running")

        code, body = call(endpoint, "POST", "/tenants/a/steps", {"steps": 2})
        assert code == 200
        assert len(body["results"]) == 2
        assert all("loss" in r for r in body["results"])

        code, body = call(endpoint, "GET", "/stats")
        assert code == 200
        assert body["tenants"]["a"]["steps_done"] == 2
        assert "pool" in body and "admission" in body

        code, body = call(endpoint, "GET", "/tenants")
        assert code == 200 and set(body["tenants"]) == {"a"}

        code, body = call(endpoint, "DELETE", "/tenants/a")
        assert (code, body["state"]) == (200, "evicted")
        code, _ = call(endpoint, "GET", "/tenants")
        assert code == 200

    def test_stats_memory_rows_are_json_objects(self, endpoint):
        """Each tenant's per-layer memory record reaches a client as an
        object with integer byte counts, not as a Python repr string."""
        call(endpoint, "POST", "/tenants", tenant_body("a"))
        call(endpoint, "POST", "/tenants/a/steps", {"steps": 2})
        code, body = call(endpoint, "GET", "/stats")
        assert code == 200
        memory = body["tenants"]["a"]["memory"]
        assert memory and all(isinstance(r, dict) for r in memory)
        for r in memory:
            assert type(r["raw_bytes"]) is int and type(r["stored_bytes"]) is int
            assert r["raw_bytes"] > r["stored_bytes"] > 0 and r["packs"] == 2

    def test_admission_conflict_is_409(self, endpoint):
        call(endpoint, "POST", "/tenants", tenant_body("a", budget=4 << 20))
        code, body = call(endpoint, "POST", "/tenants", tenant_body("b", budget=4 << 20))
        assert code == 409
        assert body["kind"] == "admission"

    def test_bad_spec_is_400(self, endpoint):
        code, body = call(endpoint, "POST", "/tenants", {"name": "x", "kind": "nope"})
        assert code == 400
        code, _ = call(endpoint, "POST", "/tenants/a/steps", {"steps": 0})
        assert code == 400

    @pytest.mark.parametrize(
        "session",
        [{"profiler": {"enabled": "yes"}}, {"adaptive": {"sigma_fraction": "1e-3"}}],
    )
    def test_wrong_typed_session_scalar_is_400(self, endpoint, session):
        body = {**tenant_body("t"), "session": session}
        code, reply = call(endpoint, "POST", "/tenants", body)
        assert code == 400
        assert "must be" in reply["error"]
        code, reply = call(endpoint, "GET", "/tenants")
        assert code == 200 and reply["tenants"] == {}

    @pytest.mark.parametrize(
        "session,error",
        [
            (
                {"storage": {"params": "arena",
                             "param_codec": {"name": "lossless", "options": {"bogus": 1}}}},
                "storage.param_codec",
            ),
            ({"rules": [{"match": "l0", "error_bound": 1e-3}]}, "unknown key"),
        ],
        ids=["bad-param-codec", "removed-rule-key"],
    )
    def test_unbuildable_or_removed_session_option_is_400(self, endpoint, session, error):
        code, reply = call(endpoint, "POST", "/tenants", {**tenant_body("t"), "session": session})
        assert code == 400
        assert error in reply["error"]
        code, reply = call(endpoint, "GET", "/tenants")
        assert code == 200 and reply["tenants"] == {}

    def test_unknown_tenant_is_404(self, endpoint):
        code, _ = call(endpoint, "POST", "/tenants/ghost/steps", {"steps": 1})
        assert code == 404
        code, _ = call(endpoint, "DELETE", "/tenants/ghost")
        assert code == 404
        code, _ = call(endpoint, "GET", "/no/such/route")
        assert code == 404

    def test_duplicate_admit_is_409(self, endpoint):
        call(endpoint, "POST", "/tenants", tenant_body("a"))
        code, _ = call(endpoint, "POST", "/tenants", tenant_body("a"))
        assert code == 409

    def test_negative_content_length_is_400(self, endpoint):
        sock, resp = raw_post(endpoint, -1)
        with sock:
            assert resp.status == 400
            assert "negative Content-Length" in json.loads(resp.read())["error"]
        assert call(endpoint, "GET", "/healthz")[0] == 200

    def test_stalled_body_is_408_and_closes_the_connection(self, endpoint, monkeypatch):
        """A body shorter than its declared length stalls the read: the
        handler gives up after its read timeout instead of holding the
        thread, and the server keeps serving."""
        monkeypatch.setattr(server_http._Handler, "timeout", 0.5)
        sock, resp = raw_post(endpoint, 100, b'{"name": ')
        with sock:
            assert resp.status == 408
            assert resp.getheader("Connection") == "close"
            assert "not received" in json.loads(resp.read())["error"]
            assert sock.recv(1) == b""  # the server closed its end
        assert call(endpoint, "GET", "/healthz")[0] == 200
        code, reply = call(endpoint, "GET", "/tenants")
        assert code == 200 and reply["tenants"] == {}

    def test_endpoint_close_leaves_server_usable(self):
        spec = ServerSpec(pool_budget_bytes=1 << 20, port=0)
        with SessionServer(spec) as server:
            ep = serve(server)
            ep.close()
            # endpoint gone, server still admits
            server.admit(tenant_body("a", budget=1 << 20))
            assert server.run(steps=1)["a"]
