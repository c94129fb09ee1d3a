"""CI smoke: drive a SessionServer through its HTTP endpoint.

Two tenants (one compressed-training, one plain inference) are admitted
over POST /tenants on an ephemeral port, stepped via
POST /tenants/<name>/steps, inspected through GET /stats, and evicted —
exercising admission, the shared pool, the scheduler, and the metrics
surface exactly the way an operator would, with no Python-API shortcuts.
Malformed tenant specs in between must each answer 400, a negative
``Content-Length`` 400 and a stalled body 408 within a deadline, and
all of them leave the admitted tenants stepping.
"""

import http.client
import json
import socket
import sys
import urllib.error
import urllib.request

sys.path.insert(0, "src")

from repro.api.config import ServerSpec  # noqa: E402
from repro.server import SessionServer, serve  # noqa: E402
from repro.server.http import READ_TIMEOUT_S  # noqa: E402

STEPS = 3


def call(url, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=300) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def raw_post(endpoint, content_length, body=b""):
    """POST /tenants with a hand-written Content-Length over a raw socket:
    the status and whether the server closed the connection, or a failure
    when no answer arrives within the deadline."""
    deadline = READ_TIMEOUT_S + 20
    with socket.create_connection((endpoint.host, endpoint.port), timeout=deadline) as sock:
        head = f"POST /tenants HTTP/1.1\r\nHost: x\r\nContent-Length: {content_length}\r\n\r\n"
        sock.sendall(head.encode() + body)
        resp = http.client.HTTPResponse(sock)
        try:
            resp.begin()
        except socket.timeout:
            raise SystemExit(f"server smoke FAILED: no answer within {deadline} s "
                             f"to Content-Length {content_length}")
        resp.read()
        return resp.status, resp.getheader("Connection") == "close"


def expect(cond, message):
    if not cond:
        raise SystemExit(f"server smoke FAILED: {message}")


def main():
    spec = ServerSpec(pool_budget_bytes=2 << 20, overcommit=2.0, workers=2, port=0)
    with SessionServer(spec) as server, serve(server) as endpoint:
        url = endpoint.url
        print(f"endpoint: {url}")

        code, body = call(url, "GET", "/healthz")
        expect(code == 200 and body["status"] == "ok", f"healthz: {code} {body}")

        tenants = [
            {
                "name": "train-a",
                "model": "alexnet",
                "image_size": 12,
                "batch_size": 4,
                "seed": 1,
                "session": {"storage": {"activations": "arena", "budget_bytes": 2 << 20}},
            },
            {
                "name": "infer-b",
                "kind": "infer",
                "model": "alexnet",
                "image_size": 12,
                "batch_size": 8,
                "seed": 2,
                "session": {"compress_activations": False},
            },
        ]
        for t in tenants:
            code, body = call(url, "POST", "/tenants", t)
            expect(
                code == 201 and body["state"] == "running",
                f"admit {t['name']}: {code} {body}",
            )
            print(f"admitted {t['name']}")

        # malformed tenants are a 400 each and leave the server serving
        bad_tenants = {
            "unbuildable param_codec": {"name": "bad-codec", "session": {"storage": {
                "params": "arena",
                "param_codec": {"name": "lossless", "options": {"bogus": 1}},
            }}},
            "unknown tenant key": {"name": "bad-key", "modle": "alexnet"},
            # per-layer policy rules are gone: the key is an unknown one
            "removed policy rules": {"name": "bad-rules", "session": {
                "rules": [{"match": "l0", "codec": {"name": "lossless"}}],
            }},
            # json.dumps writes NaN, and json.loads reads it back
            "non-finite learning rate": {"name": "bad-lr", "session": {
                "optimizer": {"lr": float("nan")},
            }},
        }
        for what, t in bad_tenants.items():
            code, body = call(url, "POST", "/tenants", t)
            expect(code == 400, f"{what}: expected 400, got {code} {body}")
            print(f"rejected {what}: {body['error'][:80]}")
        status, _ = raw_post(endpoint, -1)
        expect(status == 400, f"negative Content-Length: expected 400, got {status}")
        status, closed = raw_post(endpoint, 100, b'{"name": ')
        expect(status == 408 and closed, f"stalled body: expected 408 + close, got {status}")
        print("rejected negative Content-Length (400) and a stalled body (408)")
        code, body = call(url, "GET", "/healthz")
        expect(code == 200, f"healthz after bad requests: {code} {body}")

        for t in tenants:
            code, body = call(url, "POST", f"/tenants/{t['name']}/steps", {"steps": STEPS})
            expect(code == 200, f"steps {t['name']}: {code} {body}")
            expect(len(body["results"]) == STEPS, f"steps {t['name']}: {body}")
            print(f"{t['name']}: {body['results'][-1]}")

        code, stats = call(url, "GET", "/stats")
        expect(code == 200, f"stats: {code}")
        for t in tenants:
            row = stats["tenants"][t["name"]]
            expect(row["steps_done"] == STEPS, f"{t['name']} steps_done: {row}")
            expect("latency_p50_ms" in row, f"{t['name']} missing latencies: {row}")
        expect(stats["admission"]["admitted"] == 2, f"admission ledger: {stats['admission']}")
        expect(stats["pool"]["budget_bytes"] == 2 << 20, f"pool stats: {stats['pool']}")
        print(f"pool: {stats['pool']['in_memory_nbytes']} B resident, "
              f"{stats['pool']['spilled_nbytes']} B spilled")

        for t in tenants:
            code, body = call(url, "DELETE", f"/tenants/{t['name']}")
            expect(code == 200, f"evict {t['name']}: {code} {body}")

        code, body = call(url, "GET", "/tenants")
        expect(code == 200 and body["tenants"] == {}, f"tenants after evict: {body}")

    print("server smoke OK")


if __name__ == "__main__":
    main()
