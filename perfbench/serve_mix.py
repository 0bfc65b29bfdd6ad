"""serve-mix: ``repro serve`` answering two editors in a closed loop.

The daemon runs in its own process with default flags (``repro serve
--port 0``) and resolves its own backend.  Two clients, each on one
keep-alive connection, send a request, wait for the reply and send the
next, ten requests each per block in two legs of five; the host-speed
kernel is sampled between legs, when no request is in flight.  A block
sends:

* 6 cold ``/v1/infer`` of unseen generated 20-class programs
  (pool transport plus full inference on the process backend),
* 7 cache-hit repeats of them,
* 2 ``document`` edits of one 50-class program, re-inferred inline in the
  server, so requests beside them queue for its interpreter lock,
* 4 ``/v1/check`` of programs already answered,
* 1 malformed body, for which a 4xx with an ``error`` object is right.

These shares are a choice, not measured traffic (``README.md`` gives
the reason for each count).  Operation kinds: ``cold``, ``hit``,
``edit``, ``check`` and ``bad``; each leg is also logged as a ``leg``
for the throughput figures.

The boot's warm-up ends with two unseen programs sent at once, so the
process pool widens to two workers and starts the second before the
first measured request.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import Session, pretty_target
from repro.bench import REGJAVA_PROGRAMS
from repro.gen import GenSpec, edit_script, generate_source

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    CheckFailed,
    OpLog,
    child_env,
    geomean,
    source_lines,
    tree_peak_rss_mb,
)
from compile_cold import paper_items
from hostspeed import HostSpeed, time_kernel_per_cpu

#: every cold program has this many classes, so that the cold, check and
#: hit medians each average many like requests
COLD_CLASSES = 20
DOC_CLASSES = 50
#: one block: each client's requests, sent back to back on its own
#: keep-alive connection, as an editor waiting on each reply does, in two
#: legs of five with a quiet point between them.  Each leg opens with a
#: cold request and only repeats programs it answered itself.  Only the
#: first client edits, once per leg, so the document's versions arrive in
#: order and the incremental work repeats from run to run.  The 7 hits
#: and the malformed body are the fastest 8 of 20 and the 4 checks come
#: next, so the median request is a check, not a boundary between kinds.
#: (kind, index among the client's cold programs of the block)
CLIENT_A = (
    ("cold", 0), ("edit", -1), ("check", 0), ("hit", 0), ("hit", 0),
    ("cold", 1), ("hit", 1), ("edit", -1), ("check", 1), ("cold", 2),
)
CLIENT_B = (
    ("cold", 0), ("check", 0), ("hit", 0), ("bad", -1), ("hit", 0),
    ("cold", 1), ("hit", 1), ("cold", 2), ("check", 1), ("hit", 1),
)
BLOCK = (CLIENT_A, CLIENT_B)
LEG = 5
#: idle time before each leg, after the kernel sample: longer than the
#: delayed-ACK timer, so a leg's first requests never inherit a stall
QUIET_GAP = 0.05
COLD_PER_CLIENT = 3
COLD_PER_BLOCK = COLD_PER_CLIENT * len(BLOCK)
EDITS_PER_BLOCK = sum(kind == "edit" for client in BLOCK for kind, _ in client)
#: one block takes about 2.5 s on the reference host
SECONDS_PER_BLOCK = 2.5
#: at least 100 requests, so op_p90_ms has ten samples beyond it
MIN_BLOCKS = 5
REQUEST_KINDS = ("cold", "hit", "edit", "check", "bad")
#: bodies the server must refuse with a 4xx: not JSON, and no source
BAD_BODIES = (b'{"source": ', b'{"program": "class A extends Object { }"}')
DOCUMENT = "watched.cj"
#: paper programs the warm-up sends together, one per client
WARM_PAIR = ("mergesort", "naive-life")
BOOT_TIMEOUT = 60.0


def blocks_for(seconds: int) -> int:
    return max(MIN_BLOCKS, round(seconds / SECONDS_PER_BLOCK))


@dataclass(frozen=True)
class Request:
    kind: str
    path: str
    body: bytes
    program: int  # index into the run's cold programs, -1 for none
    lines: int


class Server:
    """One ``repro serve`` process; with ``traced_out``, run under the
    benchmark's tracer, which answers :meth:`trace_phase` in that file."""

    def __init__(self, traced_out: Optional[str] = None):
        self.traced_out = traced_out
        if traced_out is None:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            argv = [sys.executable, str(BENCH_DIR / "serve_main.py"), traced_out,
                    "serve", "--port", "0"]
        self.proc = subprocess.Popen(
            argv,
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on" in line:
                return int(line.rsplit(":", 1)[1])
        self.stop()
        raise CheckFailed("repro serve did not come up")

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def trace_phase(self, sig: int, phase: str) -> Dict:
        """Signal the traced daemon (see ``serve_main.py``) and wait for
        its acknowledgement."""
        path = Path(self.traced_out)
        path.unlink(missing_ok=True)
        self.proc.send_signal(sig)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if path.exists():
                payload = json.loads(path.read_text())
                if payload.get("phase") == phase:
                    return payload
            time.sleep(0.01)
        raise CheckFailed(f"traced server did not answer {phase!r}")

    def stats(self) -> Dict:
        conn = self.connection()
        status, payload, _, _ = call(conn, "GET", "/v1/stats")
        conn.close()
        if status != 200:
            raise CheckFailed(f"/v1/stats answered {status}")
        return payload

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, then make sure the whole process
        group, pool workers included, is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        # pool workers left behind are the daemon's children, not ours:
        # kill the group and wait until none of it is left
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def call(conn: http.client.HTTPConnection, method: str, path: str,
         body: Optional[bytes] = None) -> Tuple[int, Dict, float, float]:
    """One exchange on a kept-alive connection: (status, payload, start, end)."""
    start = time.perf_counter()
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"} if body is not None else {})
    response = conn.getresponse()
    raw = response.read()
    end = time.perf_counter()
    return response.status, json.loads(raw), start, end


def _infer_body(source: str, **extra) -> bytes:
    return json.dumps({"source": source, **extra}).encode("utf-8")


class ServeMix:
    name = "serve-mix"
    main_kinds = REQUEST_KINDS

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        blocks = blocks_for(seconds)
        self.programs = [
            generate_source(GenSpec.sized(COLD_CLASSES, seed=seed * 10_007 + j))
            for j in range(COLD_PER_BLOCK * blocks)
        ]
        self.doc_versions = edit_script(
            GenSpec.sized(DOC_CLASSES, seed=seed * 10_007 + 99_991),
            EDITS_PER_BLOCK * blocks,
        )
        self.legs = self._plan(blocks)
        self.backend: Optional[str] = None
        self.served_doc_text = ""
        self.served_doc_version = 0
        self.space_ratios: List[float] = []

    def input_texts(self) -> List[str]:
        return [*self.programs, *self.doc_versions]

    def _plan(self, blocks: int) -> List[Tuple[List[Request], ...]]:
        """The run's legs: per leg, each client's requests in order."""
        legs, edit = [], 0
        for b in range(blocks):
            clients = []
            for c, pattern in enumerate(BLOCK):
                reqs = []
                for kind, k in pattern:
                    if kind == "edit":
                        edit += 1
                        text = self.doc_versions[edit]
                        reqs.append(Request(kind, "/v1/infer",
                                            _infer_body(text, document=DOCUMENT), edit,
                                            source_lines(text)))
                    elif kind == "bad":
                        body = BAD_BODIES[b % len(BAD_BODIES)]
                        reqs.append(Request(kind, "/v1/infer", body, -1, 0))
                    else:
                        index = b * COLD_PER_BLOCK + c * COLD_PER_CLIENT + k
                        text = self.programs[index]
                        path = "/v1/check" if kind == "check" else "/v1/infer"
                        reqs.append(Request(kind, path, _infer_body(text), index,
                                            source_lines(text)))
                clients.append(reqs)
            for start in range(0, len(CLIENT_A), LEG):
                legs.append(tuple(reqs[start:start + LEG] for reqs in clients))
        return legs

    # -- server lifecycle ------------------------------------------------------
    def boot(self, log: OpLog, traced_out: Optional[str] = None) -> Tuple[Server, float]:
        """Boot, health-check and warm up a server; returns it and the
        corrected set-up seconds."""
        log.host.sample()
        start = time.perf_counter()
        server = Server(traced_out)
        try:
            conn = server.connection()
            status, health, _, _ = call(conn, "GET", "/healthz")
            if status != 200 or not health.get("ok"):
                raise CheckFailed(f"/healthz answered {status}")
            self.backend = health.get("backend")
            answers = [
                call(conn, "POST", "/v1/infer", body)
                for body in (
                    _infer_body(REGJAVA_PROGRAMS["sieve"].source),
                    _infer_body(self.doc_versions[0], document=DOCUMENT),
                )
            ]
            conn.close()
            # two unseen programs at once: the pool widens to one worker per
            # client and starts the second now, not inside a measured request
            conns = [server.connection() for _ in BLOCK]
            with ThreadPoolExecutor(max_workers=len(conns)) as pair:
                answers += pair.map(
                    lambda c, name: call(
                        c, "POST", "/v1/infer", _infer_body(REGJAVA_PROGRAMS[name].source)),
                    conns, WARM_PAIR)
            for c in conns:
                c.close()
            for status, payload, _, _ in answers:
                if status != 200 or not payload.get("ok"):
                    raise CheckFailed(f"warm-up answered {status}: {payload.get('error')}")
        except BaseException:
            server.stop()
            raise
        end = time.perf_counter()
        log.host.sample()
        return server, log.host.correct(end - start, (start + end) / 2)

    # -- the closed loop -------------------------------------------------------
    def run_pass(self, log: OpLog, server: Server, legs) -> List[Tuple[Request, int, Dict, float]]:
        """Replay ``legs`` against ``server``; returns every exchange as
        (request, status, payload, latency seconds).  The kernel is
        sampled between legs, when neither client has a request out."""
        conns = [server.connection(), server.connection()]
        cold_text: Dict[int, str] = {}
        exchanges = []
        with ThreadPoolExecutor(max_workers=len(BLOCK)) as clients:
            for leg in legs:
                time.sleep(QUIET_GAP)
                start = time.perf_counter()
                futures = [
                    clients.submit(self._send_all, conn, reqs) for conn, reqs in zip(conns, leg)
                ]
                answers = [f.result() for f in futures]
                end = time.perf_counter()
                lines = 0
                for reqs, results in zip(leg, answers):
                    for req, (status, payload, t0, t1, error) in zip(reqs, results):
                        log.attempted += 1
                        if error is None:
                            log.record(req.kind, t1 - t0, t1, req.lines)
                            exchanges.append((req, status, payload, t1 - t0))
                            error = self._check(req, status, payload, cold_text)
                        if error is not None:
                            log.fail(f"{req.kind} {req.path}: {error}")
                        else:
                            lines += req.lines
                log.record("leg", end - start, end, lines)
                log.host.sample()
        for conn in conns:
            conn.close()
        return exchanges

    @staticmethod
    def _send_all(conn: http.client.HTTPConnection, reqs: List[Request]):
        """One client's requests in order, each sent as soon as the last
        reply is read."""
        results = []
        for req in reqs:
            try:
                status, payload, t0, t1 = call(conn, "POST", req.path, req.body)
                results.append((status, payload, t0, t1, None))
            except (OSError, http.client.HTTPException, ValueError) as err:
                conn.close()  # the next request reconnects
                results.append((0, {}, 0.0, 0.0,
                                f"connection failed: {type(err).__name__}: {err}"))
        return results

    def _check(self, req: Request, status: int, payload: Dict,
               cold_text: Dict[int, str]) -> Optional[str]:
        if req.kind == "bad":
            if 400 <= status < 500 and isinstance(payload.get("error"), dict):
                return None
            return f"malformed body answered {status}"
        if status != 200 or payload.get("ok") is not True:
            return f"answered {status}: {payload.get('error')}"
        if req.kind == "cold":
            cold_text[req.program] = payload["target"]
        elif req.kind == "hit":
            if payload.get("cached") is not True:
                return "repeat was not served from the cache"
            if payload["target"] != cold_text.get(req.program):
                return "cache hit differs from the cold answer"
        elif req.kind == "check":
            if payload.get("verified") is not True:
                return "check did not verify"
        elif req.kind == "edit":
            self.served_doc_text = payload["target"]
            self.served_doc_version = req.program
        return None

    def final_checks(self, log: OpLog, server: Server) -> None:
        """The watched document's last answer must match a fresh local
        inference byte for byte; ``/v1/run`` of the paper programs with
        their test arguments gives the run's Fig 8 space ratio."""
        try:
            fresh = Session().infer(self.doc_versions[self.served_doc_version])
            if pretty_target(fresh.target) != self.served_doc_text:
                raise CheckFailed("served document differs from a fresh inference")
            conn = server.connection()
            self.space_ratios = []
            for item in paper_items():
                body = json.dumps({"source": item.source, "entry": item.entry,
                                   "args": list(item.args)}).encode("utf-8")
                status, payload, _, _ = call(conn, "POST", "/v1/run", body)
                if status != 200 or not payload.get("ok"):
                    raise CheckFailed(f"/v1/run {item.key} answered {status}: "
                                      f"{payload.get('error')}")
                if item.expected is not None and payload["result"] != str(item.expected):
                    raise CheckFailed(f"/v1/run {item.key} gave {payload['result']}")
                self.space_ratios.append(payload["stats"]["space_usage_ratio"])
            conn.close()
        except Exception as err:  # noqa: BLE001 -- counted, not raised
            log.attempted += 1
            log.fail(f"final check: {type(err).__name__}: {err}")

    # -- the two runs ----------------------------------------------------------
    def measure(self, setup_repeats: int):
        log = OpLog(host=HostSpeed(kernel=time_kernel_per_cpu))
        setups = []
        for k in range(setup_repeats):
            server, seconds = self.boot(log)
            setups.append(seconds)
            if k < setup_repeats - 1:
                server.stop()
        try:
            self.run_pass(log, server, self.legs)
            peak_rss = tree_peak_rss_mb(server.proc.pid)
            self.final_checks(log, server)
        finally:
            server.stop()
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": log.p50(REQUEST_KINDS),
            "op_p90_ms": log.p90(REQUEST_KINDS),
            "cold_p50_ms": log.p50(["cold"]),
            "edit_p50_ms": log.p50(["edit"]),
            # a fixed wall-clock wait dominates a hit: reported as measured
            "hit_p50_ms": log.p50(["hit"], corrected=False),
            "lines_per_s": log.rate(["leg"], lambda op: op.lines),
            "ops_per_s": log.rate(["leg"], lambda op: LEG * len(BLOCK)),
            "peak_rss_mb": peak_rss,
            "space_ratio_geomean": geomean(self.space_ratios),
        }
        return metrics, log

    def trace(self):
        from tracing import RATIO_METRICS

        untraced = OpLog(host=HostSpeed(kernel=time_kernel_per_cpu))
        traced = OpLog(host=untraced.host)
        half = self.legs[: max(1, len(self.legs) // 2)]
        server, _ = self.boot(untraced)
        try:
            self.run_pass(untraced, server, half)
        finally:
            server.stop()
        OUT_DIR.mkdir(exist_ok=True)
        server, _ = self.boot(traced, traced_out=str(OUT_DIR / f"server-{self.seed}.json"))
        try:
            # the tracer's window and the stats deltas cover exactly the
            # measured requests: not the boot, not the final checks
            before = server.stats()
            server.trace_phase(signal.SIGUSR1, "started")
            exchanges = self.run_pass(traced, server, half)
            totals = server.trace_phase(signal.SIGUSR2, "stopped")["totals"]
            after = server.stats()
            self.final_checks(traced, server)
        finally:
            server.stop()
        n = max(1, len(exchanges))
        metrics = {
            name: value if name in RATIO_METRICS else value / n
            for name, value in totals.items()
        }
        colds = [(p, latency) for req, _, p, latency in exchanges if req.kind == "cold"]
        # cold inference runs in pool workers, outside the traced process:
        # the server reports its time with each answer
        metrics["core.infer_ms"] = statistics.mean(
            p["stats"]["inference_seconds"] * 1000.0 for p, _ in colds)
        metrics["core.localized_regions"] = statistics.mean(
            p["stats"]["localized_regions"] for p, _ in colds)
        edits = [p["stats"] for req, _, p, _ in exchanges if req.kind == "edit"]
        reused = sum(e["reused_sccs"] for e in edits)
        reinferred = sum(e["reinferred_sccs"] for e in edits)
        metrics["core.sccs_reinferred"] = reinferred / n
        metrics["core.scc_reuse_ratio"] = reused / (reused + reinferred)
        metrics["serve.overhead_ms"] = statistics.mean(
            (latency - p["stats"]["inference_seconds"]) * 1000.0 for p, latency in colds)

        def counter(section: str, name: str) -> int:
            return (after[section]["counters"].get(name, 0)
                    - before[section]["counters"].get(name, 0))

        metrics["serve.rejected"] = counter("server", "status.429")
        metrics["serve.status_4xx"] = sum(
            counter("server", k) for k in after["server"]["counters"] if k.startswith("status.4"))
        metrics["api.pool.spawns"] = counter("pool", "pool.spawns")
        (hits0, misses0), (hits1, misses1) = _infer_traffic(before), _infer_traffic(after)
        hits, misses = hits1 - hits0, misses1 - misses0
        metrics["api.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics["trace.overhead_ratio"] = traced.busy(["leg"]) / untraced.busy(["leg"])
        metrics["host.kernel_ms"], metrics["host.kernel_spread"] = traced.host.summary()
        return metrics, [untraced, traced]


def _infer_traffic(stats: Dict) -> Tuple[int, int]:
    """File-level (``infer``) cache hits and misses over every tenant."""
    tenants = [t["stats"] for t in stats["tenants"].values()]
    return (sum(t["hits"].get("infer", 0) for t in tenants),
            sum(t["misses"].get("infer", 0) for t in tenants))
