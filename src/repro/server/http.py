"""HTTP/JSON surface for a :class:`~repro.server.SessionServer`.

Deliberately tiny: stdlib ``http.server`` only, JSON in/out, no
authentication, bind-to-localhost default — an operability window into a
running server (and the `server-smoke` CI job's driver), not a public
API gateway.

    GET  /healthz                     -> {"status": "ok", ...}
    GET  /stats                       -> server.stats()
    GET  /tenants                     -> per-tenant summaries
    POST /tenants          {spec}     -> admit (409 on AdmissionError)
    POST /tenants/<name>/steps {"steps": n} -> run n steps, return results
    DELETE /tenants/<name>            -> evict

A malformed request is a 400 (a negative ``Content-Length`` included); a
body that stalls for :data:`READ_TIMEOUT_S` is a 408 and the connection
closes.

Start one with :func:`serve`; the returned endpoint knows its bound
(possibly ephemeral) port and closes cleanly:

    endpoint = serve(server)           # host/port from server.spec
    print(endpoint.url)                # http://127.0.0.1:<port>
    endpoint.close()
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.api.config import ConfigError
from repro.server.scheduler import QueueFullError
from repro.server.server import AdmissionError, ServerError, SessionServer

__all__ = ["Endpoint", "serve"]

#: request bodies beyond this are refused (fleet specs are small)
_MAX_BODY = 4 << 20
#: seconds a connection may stall while a request is read; a body that
#: stops short of its ``Content-Length`` then ends in 408, not a
#: handler thread blocked forever
READ_TIMEOUT_S = 10.0


class _BodyTimeout(Exception):
    """The request body stalled past the handler's read timeout."""


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_S

    # -- plumbing ------------------------------------------------------------
    @property
    def app(self) -> SessionServer:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send(self, code: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            raise ValueError(f"negative Content-Length ({length})")
        if length > _MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        if length == 0:
            return {}
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise _BodyTimeout from None
        data = json.loads(raw)
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _dispatch(self, method: str) -> None:
        path = self.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        try:
            if method == "GET" and path == "/healthz":
                self._send(200, {"status": "ok", "server": repr(self.app)})
            elif method == "GET" and path == "/stats":
                self._send(200, self.app.stats())
            elif method == "GET" and path == "/tenants":
                stats = self.app.stats()
                self._send(200, {"tenants": stats["tenants"]})
            elif method == "POST" and path == "/tenants":
                tenant = self.app.admit(self._body())
                self._send(201, {"tenant": tenant.name, "state": tenant.state})
            elif method == "POST" and len(parts) == 3 and parts[0] == "tenants" and parts[2] == "steps":
                body = self._body()
                steps = body.get("steps", 1)
                if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
                    raise ValueError(f"steps must be an int >= 1, got {steps!r}")
                tickets = self.app.submit(parts[1], steps)
                results = [t.wait() for t in tickets]
                self._send(200, {"tenant": parts[1], "results": results})
            elif method == "DELETE" and len(parts) == 2 and parts[0] == "tenants":
                self.app.evict(parts[1])
                self._send(200, {"tenant": parts[1], "state": "evicted"})
            else:
                self._send(404, {"error": f"no route for {method} {self.path}"})
        except AdmissionError as exc:
            self._send(409, {"error": str(exc), "kind": "admission"})
        except QueueFullError as exc:
            self._send(429, {"error": str(exc), "kind": "backpressure"})
        except KeyError as exc:
            self._send(404, {"error": str(exc)})
        except (ConfigError, ValueError, json.JSONDecodeError) as exc:
            self._send(400, {"error": str(exc)})
        except ServerError as exc:
            self._send(409, {"error": str(exc)})
        except _BodyTimeout:  # the rest of the body may still arrive: drop the connection
            self._send(408, {"error": f"request body not received within {self.timeout} s"},
                       close=True)
        except Exception as exc:  # keep the endpoint alive on surprises
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    def do_DELETE(self):
        self._dispatch("DELETE")


class Endpoint:
    """A running HTTP endpoint bound to one :class:`SessionServer`.

    Owns only the HTTP listener — closing the endpoint never closes the
    underlying session server."""

    def __init__(self, httpd: ThreadingHTTPServer):
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="repro-server-http", daemon=True
        )
        self._thread.start()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.server_close()

    def __enter__(self) -> "Endpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Endpoint({self.url})"


def serve(
    server: SessionServer,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> Endpoint:
    """Expose *server* over HTTP/JSON.  *host*/*port* default to the
    server spec's (``port=0`` binds an ephemeral port — read it back
    from ``endpoint.port``)."""
    host = host if host is not None else server.spec.host
    port = port if port is not None else server.spec.port
    httpd = ThreadingHTTPServer((host, port), _Handler)
    httpd.app = server  # type: ignore[attr-defined]
    httpd.daemon_threads = True
    return Endpoint(httpd)
