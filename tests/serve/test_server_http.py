"""The HTTP layer: real sockets, keep-alive, body limits, graceful drain.

Each test boots a daemon on an ephemeral port in a background thread and
talks proper HTTP/1.1 to it with ``http.client``.  One test exercises
the process backend end to end (a real worker does the inference); the
rest use the thread backend to stay fast on one core.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.bench.olden import OLDEN_PROGRAMS
from repro.serve import ServerConfig, make_server
from tests.conftest import PAIR_SOURCE

TREEADD = OLDEN_PROGRAMS["treeadd"]


@pytest.fixture()
def daemon():
    """A serving daemon on an ephemeral port; yields (server, connection)."""
    server = make_server(ServerConfig(backend="thread", port=0, quiet=True))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        yield server, conn
    finally:
        conn.close()
        server.shutdown()
        thread.join(10.0)
        server.close()


def _post(conn, path, payload, headers=None):
    conn.request(
        "POST",
        path,
        body=json.dumps(payload),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read()), response


class TestRoundTrips(object):
    def test_keep_alive_serves_every_endpoint_on_one_connection(self, daemon):
        server, conn = daemon
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"

        status, payload, _ = _post(
            conn, "/v1/infer", {"source": TREEADD.source}
        )
        assert status == 200 and payload["ok"] is True

        status, payload, _ = _post(
            conn, "/v1/check", {"source": TREEADD.source}
        )
        assert status == 200 and payload["verified"] is True

        status, payload, _ = _post(
            conn,
            "/v1/run",
            {
                "source": TREEADD.source,
                "entry": TREEADD.entry,
                "args": list(TREEADD.test_args),
            },
        )
        assert status == 200

        conn.request("GET", "/v1/stats")
        stats = json.loads(conn.getresponse().read())
        # healthz + the three engine posts (the stats call itself is
        # counted after its snapshot is taken)
        assert stats["server"]["counters"]["requests_total"] == 4
        assert stats["server"]["counters"]["status.200"] == 4

    def test_tenant_header_reaches_the_router(self, daemon):
        server, conn = daemon
        status, payload, _ = _post(
            conn,
            "/v1/infer",
            {"source": PAIR_SOURCE},
            headers={"X-Repro-Tenant": "alice"},
        )
        assert status == 200
        assert payload["tenant"] == "alice"

    def test_errors_come_back_as_json(self, daemon):
        server, conn = daemon
        status, payload, _ = _post(conn, "/v1/infer", {"source": "class X {"})
        assert status == 422
        assert payload["error"]["code"] == "program_error"

    def test_retry_after_travels_as_a_header(self):
        server = make_server(
            ServerConfig(
                backend="thread",
                port=0,
                quiet=True,
                max_concurrency=1,
                max_pending=0,
            )
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        server.router.admission.acquire()  # the only slot is now busy
        try:
            status, payload, response = _post(
                conn, "/v1/infer", {"source": PAIR_SOURCE}
            )
        finally:
            server.router.admission.release()
            conn.close()
            server.shutdown()
            thread.join(10.0)
            server.close()
        assert status == 429
        assert int(response.headers["Retry-After"]) >= 1


class _CountingWriter(object):
    """Wraps a handler's ``wfile`` and records every write."""

    def __init__(self, raw, writes):
        self._raw = raw
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


class TestOneSendPerReply(object):
    """Status line, headers and body leave in one write.

    Two writes per reply (headers, then body) let Nagle's algorithm hold
    the body until the client's delayed ACK, stalling every back-to-back
    keep-alive reply by ~40 ms.
    """

    def test_every_reply_is_one_write(self, daemon, monkeypatch):
        server, conn = daemon
        writes = []
        handler = server.RequestHandlerClass
        setup = handler.setup

        def counting_setup(self):
            setup(self)
            self.wfile = _CountingWriter(self.wfile, writes)

        monkeypatch.setattr(handler, "setup", counting_setup)
        conn.request("GET", "/healthz")
        conn.getresponse().read()
        replies = [
            _post(conn, "/v1/infer", {"source": PAIR_SOURCE}),
            _post(conn, "/v1/infer", {"source": "class X {"}),
            _post(conn, "/v1/nope", {}),
        ]
        assert [status for status, _, _ in replies] == [200, 422, 404]
        assert len(writes) == 4
        for data, (_, payload, _) in zip(writes[1:], replies):
            assert data.startswith(b"HTTP/1.1 ")
            assert data.endswith(json.dumps(payload).encode())
            head = data.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
            names = {line.split(b":", 1)[0] for line in head[1:]}
            assert names >= {
                b"Server", b"Date", b"Content-Type", b"Content-Length"
            }

    def test_http_0_9_request_gets_the_bare_body(self, daemon):
        server, _ = daemon
        with socket.create_connection(("127.0.0.1", server.port), 30) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        assert json.loads(reply)["status"] == "ok"


class TestBodyLimits(object):
    def test_oversized_body_is_413_before_reading(self):
        server = make_server(
            ServerConfig(backend="thread", port=0, quiet=True, max_body_bytes=64)
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            status, payload, _ = _post(
                conn, "/v1/infer", {"source": "x" * 1000}
            )
            assert status == 413
            assert payload["error"]["code"] == "payload_too_large"
        finally:
            conn.close()
            server.shutdown()
            thread.join(10.0)
            server.close()

    def test_malformed_content_length_is_400(self, daemon):
        server, conn = daemon
        conn.putrequest("POST", "/v1/infer")
        conn.putheader("Content-Length", "banana")
        conn.endheaders()
        response = conn.getresponse()
        assert response.status == 400
        response.read()


class TestDrain(object):
    def test_shutdown_waits_for_in_flight_requests(self):
        server = make_server(ServerConfig(backend="thread", port=0, quiet=True))
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        results = {}

        def client():
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            try:
                results["status"], results["payload"], _ = _post(
                    conn, "/v1/infer", {"source": TREEADD.source}
                )
            finally:
                conn.close()

        t = threading.Thread(target=client)
        t.start()
        time.sleep(0.02)  # let the request reach the handler
        server.shutdown()  # accept loop stops; in-flight request must finish
        thread.join(10.0)
        t.join(10.0)
        server.close()
        assert results.get("status") == 200
        assert results["payload"]["ok"] is True

    def test_process_backend_round_trip_and_drain(self):
        # the full stack once: HTTP -> admission -> shared pool worker
        server = make_server(
            ServerConfig(backend="process", port=0, quiet=True, max_workers=2)
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
        try:
            status, payload, _ = _post(
                conn, "/v1/infer", {"source": TREEADD.source}
            )
            assert status == 200 and payload["ok"] is True
            conn.request("GET", "/v1/stats")
            stats = json.loads(conn.getresponse().read())
            assert stats["pool"]["counters"].get("pool.spawns", 0) >= 1
        finally:
            conn.close()
            server.shutdown()
            thread.join(30.0)
            server.close()
        assert server.router.pool.closed
