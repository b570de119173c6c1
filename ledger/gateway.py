"""``gateway_warm`` and ``gateway_cold``: verdicts over HTTP.

The server (``server.py``) is a separate process; this process is the
client, a closed loop over two keep-alive connections sending
``POST /score/bytecode``.

* ``gateway_warm`` cycles over 256 distinct contracts that a warm-up
  ``/score/batch`` already put in the verdict cache, so HTTP parsing, JSON
  and hex decoding, admission, encoding and the socket write are nearly
  all of the time.
* ``gateway_cold`` sends each contract once; none was seen before (unique
  by content, disjoint from the training corpus), so batcher wait, feature
  kernels and the model pass are nearly all of the time.

Every response must be a 200 whose probability equals the in-process
``score_batch`` of a detector fitted on the same training corpus.
"""

from __future__ import annotations

import json
import selectors
import socket
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    LedgerError,
    Outcome,
    Size,
    fit_detector,
    interval_self_times,
    median,
    now,
    peak_rss_mb,
    percentile,
    process_cpu_s,
    training_dataset,
    unique_contracts,
)

CONNECTIONS = 2
#: The timed phase is cut into this many slices.  On warm verdicts (~8k
#: requests a slice) rate, median, tail and CPU are taken per slice and
#: reported as the median over slices, which keeps a transient stall of the
#: shared machine out of the result; a cold slice holds only ~170 requests,
#: too few for a steady per-slice tail, so cold figures pool the phase.
#: A set-up spawns the server ``Size.server_spawns`` times (the last one
#: serves the run), so set-up and warm start are medians of several.
SLICES = 20
#: Largest ``/score/batch`` the default ``GatewayConfig`` accepts.
BATCH_ITEMS = 256
#: Fixed tail percentile, so commits compare like with like: a warm slice
#: leaves ~80 requests beyond it and a cold phase ~30.
TAIL_PERCENTILE = 99.0
#: Contracts reserved for the cold warm-up, never sent in the timed phase.
WARMUP_CONTRACTS = 16
SERVER = Path(__file__).resolve().parent / "server.py"
READY_TIMEOUT_S = 120.0


def _request(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nhost: ledger\r\ncontent-type: application/json\r\n"
        f"content-length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def score_request(code: bytes, trace: bool = False) -> bytes:
    payload = {"bytecode": "0x" + code.hex()}
    if trace:
        payload["trace"] = True
    return _request("/score/bytecode", json.dumps(payload).encode("ascii"))


class Connection:
    """One blocking keep-alive HTTP/1.1 connection (minimal client)."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()

    def exchange(self, payload: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(payload)
        buffer = self.buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head = bytes(buffer[:end]).lower()
        del buffer[: end + 4]
        status = int(head[9:12])
        marker = head.index(b"content-length:") + 15
        length = int(head[marker:].split(b"\r\n", 1)[0])
        while len(buffer) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buffer += chunk
        body = bytes(buffer[:length])
        del buffer[:length]
        return status, body

    def get(self, path: str) -> bytes:
        status, body = self.exchange(f"GET {path} HTTP/1.1\r\nhost: ledger\r\n\r\n".encode())
        if status != 200:
            raise LedgerError(f"GET {path} answered {status}")
        return body

    def close(self) -> None:
        self.sock.close()


class Server:
    """The gateway server process, from spawn to its readiness line."""

    def __init__(self, size: Size, log: Path):
        self._log = open(log, "wb")
        self.process = subprocess.Popen(
            [sys.executable, str(SERVER), "--size", size.name],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
        )
        self.port = self._await_ready()

    def _await_ready(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT_S):
                self.stop()
                raise LedgerError("gateway server did not become ready")
        line = self.process.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "LEDGER-READY":
            self.stop()
            raise LedgerError(f"gateway server failed to start: {line}")
        return int(line[1])

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Close stdin (the server drains and exits); kill if it lingers."""
        try:
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()
            self._log.close()


class _Client:
    """Closed-loop clients, one thread per keep-alive connection.

    Each connection owns every ``CONNECTIONS``-th payload and a cursor that
    persists across slices; warm payloads cycle, cold ones are sent once.
    """

    def __init__(self, port: int, payloads: Sequence[Tuple[int, bytes]], cycle: bool):
        self.port = port
        self.cycle = cycle
        self.shares = [list(payloads[i::CONNECTIONS]) for i in range(CONNECTIONS)]
        self.cursors = [0] * CONNECTIONS
        self.connections = [Connection(port) for _ in range(CONNECTIONS)]

    def _drive(self, slot: int, deadline: float, records: List[tuple]) -> None:
        share = self.shares[slot]
        connection = self.connections[slot]
        index = self.cursors[slot]
        clock = now
        while clock() < deadline:
            if index == len(share):
                if not self.cycle:
                    break
                index = 0
            payload_index, payload = share[index]
            started = clock()
            try:
                status, body = connection.exchange(payload)
            except OSError as exc:
                records.append((payload_index, clock() - started, 0, repr(exc).encode()))
                connection.close()
                connection = self.connections[slot] = Connection(self.port)
            else:
                records.append((payload_index, clock() - started, status, body))
            index += 1
        self.cursors[slot] = index

    def run(self, seconds: float) -> Tuple[List[tuple], float, float]:
        """One slice: ``(records, wall seconds, client CPU seconds)``."""
        records: List[List[tuple]] = [[] for _ in range(CONNECTIONS)]
        cpu = process_cpu_s()
        started = now()
        threads = [
            threading.Thread(target=self._drive, args=(slot, started + seconds, records[slot]))
            for slot in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = now() - started
        return [r for share in records for r in share], wall, process_cpu_s() - cpu

    def close(self) -> None:
        for connection in self.connections:
            connection.close()


def _measure(server, codes, indices, seconds, cycle, trace) -> List[dict]:
    """``SLICES`` back-to-back slices of ``seconds / SLICES`` each; every
    slice records its requests, its wall and the client's and the server's
    CPU."""
    client = _Client(server.port, [(i, score_request(codes[i], trace)) for i in indices], cycle)
    slices = []
    try:
        for _ in range(SLICES):
            server_cpu = process_cpu_s(server.pid)
            records, wall, client_cpu = client.run(seconds / SLICES)
            slices.append({
                "records": records, "wall": wall, "client_cpu": client_cpu,
                "server_cpu": process_cpu_s(server.pid) - server_cpu,
            })
    finally:
        client.close()
    return slices


def _verify(records, reference: Sequence[float], corrupt: bool) -> Tuple[int, List[dict]]:
    """Count wrong answers; returns (failed, [(record, body)] of the good ones)."""
    failed = 0
    parsed = []
    for position, record in enumerate(records):
        index, _, status, body = record
        if status != 200:
            failed += 1
            continue
        payload = json.loads(body)
        probability = payload["probability"]
        if corrupt and position == 0:
            probability = 1.0 - probability
        if probability != reference[index]:
            failed += 1
            continue
        parsed.append((record, payload))
    return failed, parsed


def _setup(seed: int, size: Size, cold: bool, state: Path, attempt: int):
    """Inputs, server spawn to readiness, and warm-up.

    Returns the server, the contracts and the warm start: spawn to the
    first verdict, on a new connection, from a server whose caches are
    empty, as after any restart.
    """
    train = set(training_dataset(size).bytecodes)
    count = (size.cold_contracts if cold else size.warm_contracts) + WARMUP_CONTRACTS
    codes = unique_contracts(seed, count, exclude=train)
    spawned = now()
    server = Server(size, state / f"server-{attempt}.log")
    try:
        warmup = Connection(server.port)
        try:
            status, _ = warmup.exchange(score_request(codes[-1]))
            warm_start = now() - spawned
            if status != 200:
                raise LedgerError(f"first verdict answered {status}")
            if cold:
                # First calls into the kernels and the model, on contracts
                # the timed phase never sends.
                for code in codes[-WARMUP_CONTRACTS:]:
                    warmup.exchange(score_request(code))
            else:
                timed = codes[:-WARMUP_CONTRACTS]
                for start in range(0, len(timed), BATCH_ITEMS):
                    chunk = timed[start: start + BATCH_ITEMS]
                    batch = json.dumps({"bytecodes": ["0x" + code.hex() for code in chunk]})
                    status, _ = warmup.exchange(_request("/score/batch", batch.encode("ascii")))
                    if status != 200:
                        raise LedgerError(f"warm-up batch answered {status}")
                for code in timed[:64]:
                    warmup.exchange(score_request(code))
        finally:
            warmup.close()
    except BaseException:
        server.stop()
        raise
    return server, codes, warm_start


def _trace_layers(parsed) -> Dict[str, List[float]]:
    """Per-request span self-times and the client-side residual."""
    series: Dict[str, List[float]] = {}
    for record, payload in parsed:
        spans = payload["trace"]["spans"]
        for name, self_ms in interval_self_times(spans):
            series.setdefault(name, []).append(self_ms)
        for span in spans:
            series.setdefault(f"{span['name']}.total", []).append(span["duration_ms"])
            if span["name"] == "gateway":
                series.setdefault("unattributed", []).append(
                    record[1] * 1000.0 - span["duration_ms"])
    return series


def _flush_share(metrics_text: str) -> float:
    flushes: Dict[str, float] = {}
    for line in metrics_text.splitlines():
        if line.startswith("repro_serving_flushes_total{"):
            reason = line.split('reason="', 1)[1].split('"', 1)[0]
            flushes[reason] = float(line.rsplit(" ", 1)[1])
    total = sum(flushes.values())
    return flushes.get("aged", 0.0) / total if total else 0.0


def _slice_stats(slices, reference, corrupt, pooled: bool) -> dict:
    """Verify every answer; rate, latency and server CPU per slice (median
    over slices) or, with ``pooled``, over the whole phase."""
    failed = 0
    rates, p50s, tails, cpus = [], [], [], []
    parsed = []
    all_ms: List[float] = []
    good_total = 0
    for number, part in enumerate(slices):
        bad, good = _verify(part["records"], reference, corrupt and number == 0)
        failed += bad
        good_total += len(good)
        parsed += good
        rtt_ms = [record[1] * 1000.0 for record in part["records"]]
        all_ms += rtt_ms
        rates.append(len(good) / part["wall"])
        p50s.append(median(rtt_ms))
        tails.append(percentile(rtt_ms, TAIL_PERCENTILE))
        cpus.append(part["server_cpu"] * 1000.0 / max(1, len(rtt_ms)))
    requests = len(all_ms)
    if pooled:
        rate = good_total / sum(part["wall"] for part in slices)
        p50, tail = median(all_ms), percentile(all_ms, TAIL_PERCENTILE)
        cpu = sum(part["server_cpu"] for part in slices) * 1000.0 / max(1, requests)
    else:
        rate, p50, tail, cpu = median(rates), median(p50s), median(tails), median(cpus)
    return {
        "failed": failed,
        "requests": requests,
        "parsed": parsed,
        "rate": rate,
        "p50": p50,
        "tail": tail,
        "server_cpu_ms": cpu,
        "client_cpu_ms": sum(p["client_cpu"] for p in slices) * 1000.0 / max(1, requests),
    }


def run(seed: int, seconds: float, trace: bool, size: Size, state, corrupt: bool,
        cold: bool) -> Outcome:
    from repro.features.batch import BatchFeatureService
    from repro.serving import ScoringService

    setups, warm_starts = [], []
    server: Optional[Server] = None
    for attempt in range(size.server_spawns):
        if server is not None:
            server.stop()
        started = now()
        server, codes, warm_start = _setup(seed, size, cold, state, attempt)
        setups.append(now() - started)
        warm_starts.append(warm_start * 1000.0)
    try:
        timed = list(range(len(codes) - WARMUP_CONTRACTS))
        if cold:
            plain_indices = timed[: len(timed) // 2] if trace else timed
            traced_indices = timed[len(timed) // 2:]
        else:
            plain_indices = traced_indices = timed
        phase_seconds = seconds / 2 if trace else seconds
        plain = _measure(server, codes, plain_indices, phase_seconds, not cold, False)
        traced = None
        if trace:
            traced = _measure(server, codes, traced_indices, seconds / 2, not cold, True)
        control = Connection(server.port)
        try:
            stats = json.loads(control.get("/stats"))
            metrics_text = control.get("/metrics").decode()
        finally:
            control.close()
        server_rss = peak_rss_mb(server.pid)
    finally:
        server.stop()

    reference_detector, _ = fit_detector(size, feature_service=BatchFeatureService())
    reference = [v.probability for v in ScoringService(reference_detector).score_batch(codes)]
    measured = _slice_stats(plain, reference, corrupt, pooled=cold)
    attempted, failed = measured["requests"], measured["failed"]
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "contracts_per_s": (measured["rate"], "1/s"),
        "latency_p50_ms": (measured["p50"], "ms"),
        "latency_tail_ms": (measured["tail"], "ms"),
        "cpu_ms_per_contract": (measured["server_cpu_ms"], "ms"),
        "peak_rss_mb": (server_rss, "MiB"),
        "warm_start_ms": (median(warm_starts), "ms"),
    }
    gateway_stats, service_stats = stats["gateway"], stats["service"]
    detail = {
        "requests": measured["requests"],
        "slices": SLICES,
        "connections": CONNECTIONS,
        "loop": "closed",
        "latency_unit": "client send to last response byte",
        "statistics": "whole phase" if cold else "per slice, median over slices",
        "latency_tail_percentile": TAIL_PERCENTILE,
        "client_cpu_ms_per_request": measured["client_cpu_ms"],
        "warm_start_unit": "server spawn to its first verdict, median over set-ups",
        "server_shed": gateway_stats["shed"],
        "server_timeouts": gateway_stats["timeouts"],
    }
    per_layer: Dict[str, tuple] = {}
    if traced is not None:
        traced_stats = _slice_stats(traced, reference, False, pooled=cold)
        attempted += traced_stats["requests"]
        failed += traced_stats["failed"]
        series = _trace_layers(traced_stats["parsed"])

        def p50(name: str) -> float:
            return median(series.get(name, []))

        per_layer = {
            "gateway.requests": (gateway_stats["requests"], "count"),
            "gateway.shed": (gateway_stats["shed"], "count"),
            "gateway.timeouts": (gateway_stats["timeouts"], "count"),
            "gateway.span_ms_p50": (p50("gateway"), "ms"),
            "gateway.unattributed_ms_p50": (p50("unattributed"), "ms"),
            "client.cpu_ms_per_request": (measured["client_cpu_ms"], "ms"),
            "service.verdict_hit_ratio": (service_stats["verdict_hit_rate"], "ratio"),
            "service.batch_wait_ms_p50": (p50("batch"), "ms"),
            "service.mean_batch_size": (service_stats["mean_batch_size"], "count"),
            "service.aged_flush_share": (_flush_share(metrics_text), "ratio"),
            "features.kernel_passes": (service_stats["kernel_passes"], "count"),
            "features.hit_ratio": (service_stats["feature_hit_rate"], "ratio"),
            "features.span_ms_p50": (p50("features"), "ms"),
            "evm.kernel_ms_p50": (p50("kernel"), "ms"),
            "model.pass_ms_p50": (p50("model.total"), "ms"),
            "model.self_ms_p50": (p50("model"), "ms"),
            "model.rows_per_pass": (service_stats["mean_batch_size"], "count"),
            "obs.trace_overhead": (measured["rate"] / traced_stats["rate"], "ratio"),
        }
    return Outcome(attempted, failed, end_to_end, per_layer, detail)
