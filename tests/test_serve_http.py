"""End-to-end HTTP surface: routes, error taxonomy, probes, metrics."""

import http.client
import json
import socket
import threading

import numpy as np
import pytest

from repro.api import KCenterSession, ProblemSpec
from repro.serve import ReproServer, ServeConfig
from repro.serve.server import _Handler
from test_serve_metrics import parse_prometheus

SPEC = dict(k=3, z=4, eps=0.5, dim=2, seed=0)
WINDOW = dict(window=50, r_min=0.1, r_max=10.0)


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(ServeConfig(port=0, spool_dir=str(tmp_path / "spool")))
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    yield conn
    conn.close()


def _req(conn, method, path, body=None, headers=None):
    hdrs = {"Content-Type": "application/json"}
    hdrs.update(headers or {})
    if isinstance(body, dict):
        body = json.dumps(body).encode()
    conn.request(method, path, body=body, headers=hdrs)
    resp = conn.getresponse()
    payload = resp.read()
    ctype = resp.getheader("Content-Type", "")
    doc = (json.loads(payload)
           if ctype.startswith("application/json") and payload else payload)
    return resp.status, doc, ctype


def _create(conn, name, backend="insertion-only", **extra):
    body = {"spec": SPEC, "backend": backend, **extra}
    return _req(conn, "PUT", f"/sessions/{name}", body)


def _points(seed, n=64, d=2):
    return np.random.default_rng(seed).normal(size=(n, d)) * 4.0


class TestProbes:
    def test_healthz_and_readyz(self, server, client):
        status, body, ctype = _req(client, "GET", "/healthz")
        assert (status, body) == (200, b"ok\n") and ctype.startswith("text/plain")
        status, body, _ = _req(client, "GET", "/readyz")
        assert (status, body) == (200, b"ready\n")

    def test_readyz_503_when_not_ready(self, server, client):
        server._ready.clear()
        try:
            status, body, _ = _req(client, "GET", "/readyz")
            assert (status, body) == (503, b"not ready\n")
        finally:
            server._ready.set()

    def test_unknown_route_and_method(self, server, client):
        status, doc, _ = _req(client, "GET", "/nope")
        assert status == 404 and doc["error"]["code"] == "unknown-route"
        status, doc, _ = _req(client, "POST", "/sessions/a")
        assert status == 405 and doc["error"]["code"] == "method-not-allowed"


class TestSessionRoutes:
    def test_create_conflict_and_info(self, server, client):
        status, doc, _ = _create(client, "a")
        assert status == 201 and doc["name"] == "a" and doc["resident"]
        status, doc, _ = _create(client, "a")
        assert status == 409 and doc["error"]["code"] == "session-exists"
        status, doc, _ = _req(client, "GET", "/sessions/a")
        assert status == 200 and doc["backend"] == "insertion-only"
        status, doc, _ = _req(client, "GET", "/sessions")
        assert status == 200 and [s["name"] for s in doc["sessions"]] == ["a"]

    def test_create_validation_errors(self, server, client):
        cases = [
            ("bad name", "PUT", "/sessions/..", {"spec": SPEC},
             400, "bad-session-name"),
            ("no spec", "PUT", "/sessions/a", {}, 400, "missing-spec"),
            ("bad spec", "PUT", "/sessions/a", {"spec": {"k": -1}},
             400, "bad-spec"),
            # json.dumps sends inf as the bare literal Infinity: integer
            # fields must reject it and fractions, not overflow or truncate
            ("infinite k", "PUT", "/sessions/a",
             {"spec": {**SPEC, "k": float("inf")}}, 400, "bad-spec"),
            ("infinite seed", "PUT", "/sessions/a",
             {"spec": {**SPEC, "seed": float("inf")}}, 400, "bad-spec"),
            ("fractional k and z", "PUT", "/sessions/a",
             {"spec": {**SPEC, "k": 2.9, "z": 0.5}}, 400, "bad-spec"),
            # the retired kernel-precision knob is an unknown field
            ("retired dtype", "PUT", "/sessions/a",
             {"spec": {**SPEC, "dtype": "float32"}}, 400, "bad-spec"),
            ("bad backend", "PUT", "/sessions/a",
             {"spec": SPEC, "backend": "warp-drive"}, 400, "unknown-backend"),
            # MPC options fail at creation, not at every solve, and are
            # never truncated
            *[(f"mpc {opts}", "PUT", "/sessions/a",
               {"spec": SPEC, "backend": backend, "options": opts}, 400, "bad-session")
              for backend, opts in [
                  ("mpc-two-round", {"num_machines": 0}),
                  ("mpc-one-round", {"num_machines": 2.5}),
                  ("mpc-two-round", {"partition": "bogus"}),
                  ("mpc-multi-round", {"rounds": 2.5}),
                  ("mpc-multi-round", {"rounds": True})]],
            # so do the streaming and dynamic backends' options
            *[(f"{backend} {opts}", "PUT", "/sessions/a",
               {"spec": SPEC, "backend": backend, "options": opts}, 400, "bad-session")
              for backend, opts in [
                  ("dynamic", {"delta_universe": 64.7}),
                  ("dynamic-deterministic", {"delta_universe": 64.7}),
                  ("dynamic", {"delta_universe": 64, "s_override": 2.5}),
                  ("dynamic", {"delta_universe": 64, "failure": 5.0}),
                  ("dynamic-deterministic", {"delta_universe": 64, "check": -3}),
                  ("sliding-window", {**WINDOW, "window": 10.9}),
                  ("sliding-window", {**WINDOW, "window": True}),
                  ("sliding-window", {**WINDOW, "window": 0}),
                  ("sliding-window", {**WINDOW, "capacity": 0}),
                  ("sliding-window", {**WINDOW, "r_max": float("inf")}),
                  ("insertion-only", {"size_cap": 100.5})]],
            ("bad cadence", "PUT", "/sessions/a",
             {"spec": SPEC, "checkpoint_every": 0},
             400, "bad-checkpoint-every"),
            ("bad reference", "PUT", "/sessions/a",
             {"spec": SPEC, "reference_radius": -1},
             400, "bad-reference-radius"),
        ]
        for label, method, path, body, want_status, want_code in cases:
            status, doc, _ = _req(client, method, path, body)
            assert status == want_status, label
            assert doc["error"]["code"] == want_code, label

    def test_extend_json_and_binary_wire_parity(self, server, client):
        pts = _points(3)
        _create(client, "j")
        _create(client, "b")
        status, doc, _ = _req(client, "POST", "/sessions/j/extend",
                              {"points": pts.tolist()})
        assert status == 200 and doc["applied"] == len(pts)
        raw = np.ascontiguousarray(pts, dtype="<f8").tobytes()
        status, doc, _ = _req(
            client, "POST", "/sessions/b/extend", raw,
            headers={"Content-Type": "application/octet-stream",
                     "X-Repro-Shape": f"{pts.shape[0]},{pts.shape[1]}"})
        assert status == 200 and doc["applied"] == len(pts)
        _, sol_j, _ = _req(client, "GET", "/sessions/j/solve")
        _, sol_b, _ = _req(client, "GET", "/sessions/b/solve")
        assert sol_j["radius"] == sol_b["radius"]
        assert sol_j["centers"] == sol_b["centers"]

    def test_extend_error_taxonomy(self, server, client):
        _create(client, "a")
        cases = [
            ("no points", {}, None, 400, "missing-points"),
            ("nan", {"points": [[float("nan"), 0.0]]}, None,
             400, "bad-points"),
            ("ragged", {"points": [[1.0, 2.0], [3.0]]}, None,
             400, "bad-points"),
            ("3d", {"points": [[[1.0]]]}, None, 400, "bad-points"),
        ]
        for label, body, headers, want_status, want_code in cases:
            status, doc, _ = _req(client, "POST", "/sessions/a/extend",
                                  body, headers=headers)
            assert status == want_status, label
            assert doc["error"]["code"] == want_code, label
        # binary path: shape header mismatches
        raw = b"\x00" * 16
        for shape in (None, "bogus", "3,2"):
            headers = {"Content-Type": "application/octet-stream"}
            if shape:
                headers["X-Repro-Shape"] = shape
            status, doc, _ = _req(client, "POST", "/sessions/a/extend",
                                  raw, headers=headers)
            assert status == 400 and doc["error"]["code"] == "bad-shape"
        status, doc, _ = _req(client, "POST", "/sessions/ghost/extend",
                              {"points": [[0.0, 0.0]]})
        assert status == 404 and doc["error"]["code"] == "unknown-session"

    def test_solve_matches_library_and_reports_ratio(self, server, client):
        pts = _points(7)
        control = KCenterSession.from_spec(
            ProblemSpec(**SPEC), backend="insertion-only")
        control.extend(pts)
        want = control.solve(method="greedy3")
        _create(client, "a", reference_radius=float(want.radius))
        _req(client, "POST", "/sessions/a/extend", {"points": pts.tolist()})
        status, doc, _ = _req(client, "GET", "/sessions/a/solve?method=greedy3")
        assert status == 200
        assert doc["radius"] == want.radius
        assert np.array_equal(np.asarray(doc["centers"]), want.centers)
        assert doc["coreset_size"] == want.coreset_size
        assert doc["radius_ratio"] == pytest.approx(1.0)
        # the radius search's decision path rides along with every solve
        assert doc["greedy_path"] in ("pairwise", "grid", "dense", "mixed")

    def test_solve_on_empty_sliding_window_is_200(self, server, client):
        # an empty window answers like an empty insertion-only session
        status, _, _ = _create(client, "w", backend="sliding-window",
                               options={"window": 16, "r_min": 0.01,
                                        "r_max": 100.0})
        assert status == 201
        status, doc, _ = _req(client, "GET", "/sessions/w/solve")
        assert status == 200
        assert doc["radius"] == 0.0 and doc["centers"] == []
        assert doc["coreset_size"] == 0

    def test_delete_points_routes(self, server, client):
        pts = np.random.default_rng(5).integers(
            1, 64, size=(48, 2)).astype(float)
        _create(client, "dyn", backend="dynamic",
                options={"delta_universe": 64, "s_override": 24})
        _req(client, "POST", "/sessions/dyn/extend", {"points": pts.tolist()})
        status, doc, _ = _req(client, "POST", "/sessions/dyn/delete",
                              {"points": pts[:8].tolist()})
        assert status == 200 and doc["applied"] == 8
        _create(client, "ins")
        _req(client, "POST", "/sessions/ins/extend", {"points": pts.tolist()})
        status, doc, _ = _req(client, "POST", "/sessions/ins/delete",
                              {"points": pts[:8].tolist()})
        assert status == 409 and doc["error"]["code"] == "delete-unsupported"

    def test_save_and_drop(self, server, client):
        _create(client, "a")
        _req(client, "POST", "/sessions/a/extend",
             {"points": _points(1).tolist()})
        status, doc, _ = _req(client, "POST", "/sessions/a/save")
        assert status == 200 and doc["path"].endswith("a.snap")
        status, doc, _ = _req(client, "DELETE", "/sessions/a")
        assert status == 200 and doc == {"deleted": "a"}
        status, doc, _ = _req(client, "GET", "/sessions/a")
        assert status == 404


class TestMetricsEndpoint:
    def test_scrape_parses_and_carries_families(self, server, client):
        _create(client, "a")
        pts = _points(2)
        _req(client, "POST", "/sessions/a/extend", {"points": pts.tolist()})
        _req(client, "GET", "/sessions/a/solve")
        _req(client, "GET", "/nope")  # a 404 lands in the request counter too
        status, body, ctype = _req(client, "GET", "/metrics")
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        fams = parse_prometheus(body.decode())
        for family in (
            "repro_serve_ready",
            "repro_serve_http_requests_total",
            "repro_serve_points_total",
            "repro_serve_solves_total",
            "repro_serve_request_seconds",
            "repro_serve_solve_seconds",
            "repro_serve_sessions_resident",
            "repro_serve_sessions_evicted",
            "repro_serve_evictions_total",
            "repro_serve_restores_total",
            "repro_serve_checkpoints_total",
            "repro_serve_recovered_sessions_total",
            "repro_serve_coreset_size",
            "repro_serve_solve_radius",
        ):
            assert family in fams, family
        assert server.gauge_up.value() == 1
        assert server.counter_points.value(
            op="extend", backend="insertion-only") == len(pts)
        assert server.counter_solves.value(backend="insertion-only") == 1
        assert server.counter_requests.value(
            method="GET", route="*", code="404") >= 1
        # per-backend latency histogram has one extend + one solve sample
        hist = [s for s in fams["repro_serve_request_seconds"]["samples"]
                if s[0].endswith("_count") and s[1]["op"] == "extend"]
        assert hist and float(hist[0][2]) == 1
        # the solve also landed in the solve-latency histogram
        khist = [s for s in fams["repro_serve_solve_seconds"]["samples"]
                 if s[0].endswith("_count")
                 and s[1]["backend"] == "insertion-only"]
        assert khist and float(khist[0][2]) == 1

    def test_grid_builds_counter_follows_greedy_stats(self, server, client):
        # over 2048 coreset points a greedy3 solve takes the grid-pruned
        # search: the counter rises by the grids that solve built, under
        # its backend label alone
        _create(client, "big")
        pts = np.random.default_rng(0).uniform(0, 100, (3000, 2))
        _req(client, "POST", "/sessions/big/extend", {"points": pts.tolist()})
        status, doc, _ = _req(client, "GET",
                              "/sessions/big/solve?method=greedy3")
        assert status == 200 and doc["coreset_size"] > 2048
        assert doc["greedy_path"] == "grid"
        builds = doc["greedy_stats"]["grid_builds"]
        assert builds > 0
        assert server.counter_grid_levels.value(
            backend="insertion-only") == builds
        _, body, _ = _req(client, "GET", "/metrics")
        fam = parse_prometheus(body.decode())[
            "repro_serve_greedy_grid_levels_total"]
        assert fam["samples"] == [("repro_serve_greedy_grid_levels_total",
                                   {"backend": "insertion-only"},
                                   str(builds))]

    def test_session_gauges_are_removed_on_drop(self, server, client):
        _create(client, "a")
        _req(client, "POST", "/sessions/a/extend",
             {"points": _points(4).tolist()})
        _req(client, "GET", "/sessions/a/solve")
        _, body, _ = _req(client, "GET", "/metrics")
        assert 'repro_serve_coreset_size{session="a"}' in body.decode()
        _req(client, "DELETE", "/sessions/a")
        _, body, _ = _req(client, "GET", "/metrics")
        assert 'session="a"' not in body.decode()


class TestServerLifecycle:
    def test_ready_file_points_at_server(self, server):
        with open(server.config.ready_file) as fh:
            doc = json.load(fh)
        assert doc["port"] == server.port
        assert doc["url"] == server.url
        assert doc["recovered"] == []

    def test_stop_checkpoints_sessions(self, tmp_path):
        spool = tmp_path / "spool"
        srv = ReproServer(ServeConfig(port=0, spool_dir=str(spool))).start()
        conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
        try:
            _create(conn, "a")
            _req(conn, "POST", "/sessions/a/extend",
                 {"points": _points(6).tolist()})
        finally:
            conn.close()
        srv.stop()
        assert (spool / "a.snap").exists()

    def test_restart_recovers_spooled_sessions(self, tmp_path):
        spool = tmp_path / "spool"
        pts = _points(8)
        srv = ReproServer(ServeConfig(port=0, spool_dir=str(spool))).start()
        conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
        try:
            _create(conn, "a")
            _req(conn, "POST", "/sessions/a/extend", {"points": pts.tolist()})
            _, want, _ = _req(conn, "GET", "/sessions/a/solve")
        finally:
            conn.close()
        srv.stop()

        srv2 = ReproServer(ServeConfig(port=0, spool_dir=str(spool))).start()
        conn = http.client.HTTPConnection("127.0.0.1", srv2.port, timeout=30)
        try:
            assert srv2.recovered == ["a"]
            status, got, _ = _req(conn, "GET", "/sessions/a/solve")
            assert status == 200
            assert got["radius"] == want["radius"]
            assert got["centers"] == want["centers"]
        finally:
            conn.close()
            srv2.stop()

    def test_context_manager(self, tmp_path):
        with ReproServer(ServeConfig(
                port=0, spool_dir=str(tmp_path / "s"))) as srv:
            conn = http.client.HTTPConnection(
                "127.0.0.1", srv.port, timeout=30)
            try:
                status, _, _ = _req(conn, "GET", "/healthz")
                assert status == 200
            finally:
                conn.close()


def _raw(port, head: bytes):
    """Send raw request bytes; return ``(status, doc, closed)`` where
    ``closed`` says the server closed the connection after answering."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head)
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        doc = json.loads(resp.read())
        try:
            closed = sock.recv(1) == b""
        except socket.timeout:
            closed = False
        return resp.status, doc, closed


class TestFraming:
    """Malformed request framing is a 400 that closes the connection,
    never a 500 or a worker blocked reading an unframed body."""

    @pytest.mark.parametrize("value", [b"-1", b"abc", b"-5", b"+5", b"1e3", b""])
    def test_malformed_content_length(self, server, value):
        status, doc, closed = _raw(
            server.port,
            b"POST /sessions/a/extend HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + value + b"\r\n\r\n")
        assert status == 400 and doc["error"]["code"] == "bad-framing"
        assert closed

    def test_duplicate_content_length(self, server):
        status, doc, closed = _raw(
            server.port,
            b"PUT /sessions/a HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n"
            b"Content-Length: 2\r\n\r\n")
        assert status == 400 and "duplicate" in doc["error"]["message"]
        assert closed

    def test_transfer_encoding_rejected(self, server):
        status, doc, closed = _raw(
            server.port,
            b"POST /sessions/a/extend HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n")
        assert status == 400 and doc["error"]["code"] == "bad-framing"
        assert closed

    def test_server_keeps_serving_after_bad_framing(self, server, client):
        _raw(server.port, b"POST /sessions/a/extend HTTP/1.1\r\nHost: t\r\n"
                          b"Content-Length: -1\r\n\r\n")
        status, doc, _ = _create(client, "a")
        assert status == 201
        status, doc, _ = _req(client, "POST", "/sessions/a/extend",
                              {"points": _points(1).tolist()})
        assert status == 200 and doc["applied"] == 64

    @pytest.mark.parametrize("path,want", [
        ("/sessions/a/extend", (408, "request-timeout")),
        # an error answered before the body is read: the drain stalls
        ("/nowhere", (404, "unknown-route")),
    ])
    def test_stalled_body_times_out(self, server, monkeypatch, path, want):
        # headers, then half a body, then silence: once the read timeout
        # passes the server answers, closes, and the worker ends
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        workers = []
        setup = _Handler.setup

        def recording_setup(self):
            workers.append(threading.current_thread())
            setup(self)

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        status, doc, closed = _raw(
            server.port,
            b"POST " + path.encode() + b" HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\nContent-Length: 100\r\n"
            b"\r\n{\"points\": [[0.0, ")
        assert (status, doc["error"]["code"]) == want
        assert closed
        assert len(workers) == 1
        workers[0].join(timeout=10)
        assert not workers[0].is_alive()

    def test_read_timeout_is_set(self):
        assert _Handler.timeout == 30

    def test_accepted_socket_disables_nagle(self, server, monkeypatch):
        seen = []
        setup = _Handler.setup

        def recording_setup(self):
            setup(self)
            seen.append(self.connection.getsockopt(socket.IPPROTO_TCP,
                                                   socket.TCP_NODELAY))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            assert _req(conn, "GET", "/healthz")[0] == 200
        finally:
            conn.close()
        assert seen and seen[0] != 0
