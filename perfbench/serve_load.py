"""The ``serve`` workload: the paper's Table IV grid over loopback HTTP.

The server is ``repro serve --workers 1 --jobs 1``, started here as a
subprocess. The client is the program's own ``ServiceClient`` on one
keep-alive connection, in a closed loop: it sends the next request when
the last answer has arrived. Phases, in order:

1. set-up: the server is launched ``SETUP_LAUNCHES`` times, each timed
   from launch to a good ``/healthz``; the last one serves the rest;
2. a cold serial pass over the 150 grid requests (all fingerprint misses);
3. warm serial passes, whole passes, until the run's time is spent.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import checks
import common
import spans

GRID_MODELS = ("resnet152", "resnet50", "xception", "densenet121", "mobilenetv2")
GRID_ARCHITECTURES = ("segmented", "segmentedrr", "hybrid")
GRID_CE_COUNTS = tuple(range(2, 12))
GRID_BOARD = "vcu108"

SETUP_LAUNCHES = 5

Request = Tuple[str, str, int]
_BANNER = re.compile(r"on (http://\S+)")


def grid() -> List[Request]:
    return [(m, a, n) for m in GRID_MODELS for a in GRID_ARCHITECTURES for n in GRID_CE_COUNTS]


def request_order(rng: random.Random) -> List[Request]:
    """The grid in a seeded order made of rounds of one request per CNN,
    so the heavy and light CNNs are spread evenly through every pass."""
    per_model = {model: [r for r in grid() if r[0] == model] for model in GRID_MODELS}
    for requests in per_model.values():
        rng.shuffle(requests)
    order: List[Request] = []
    for index in range(len(GRID_ARCHITECTURES) * len(GRID_CE_COUNTS)):
        models = list(GRID_MODELS)
        rng.shuffle(models)
        order += [per_model[model][index] for model in models]
    return order


class Server:
    """One ``repro serve`` process group, stopped with SIGTERM (drain)."""

    def __init__(self, launcher: Optional[List[str]] = None) -> None:
        args = ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "1", "--jobs", "1"]
        prefix = launcher if launcher is not None else ["-m", "repro"]
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + prefix + args,
            stdout=subprocess.PIPE,
            text=True,
            env=common.child_env(),
            cwd=str(common.ROOT),
            start_new_session=True,
        )
        try:
            self.url = self._await_banner()
            self.health = self._await_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.launched
        self.worker_pid = self.health["workers"][0]["pid"]

    def _await_banner(self) -> str:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            raise common.BenchError(f"server did not announce itself: {line!r}")
        return match.group(1)

    def _await_health(self) -> dict:
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient(self.url, timeout=5.0)
        deadline = time.perf_counter() + 60.0
        try:
            while time.perf_counter() < deadline:
                if self.proc.poll() is not None:
                    raise common.BenchError(f"server exited with {self.proc.returncode}")
                try:
                    health = client.healthz()
                except ServiceError:
                    time.sleep(0.002)
                    continue
                if health.get("status") == "ok" and health.get("worker_count", 0) >= 1:
                    return health
                time.sleep(0.002)
        finally:
            client.close()
        raise common.BenchError("server never reported healthy")

    def stop(self) -> None:
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Ledger:
    """Every response, for the checks after the timed phases."""

    def __init__(self) -> None:
        self.reports: Dict[Request, List[dict]] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def send(self, client, request: Request) -> None:
        from repro.service.client import ServiceError

        model, architecture, ce_count = request
        try:
            result = client.evaluate(model, GRID_BOARD, architecture, ce_count=ce_count)
            outcome = result.raw.get("report") if result.feasible else None
            problem = None if result.feasible else f"{request} infeasible: {result.reason}"
        except ServiceError as error:
            outcome, problem = None, f"{request}: {error}"
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)
        else:
            self.reports.setdefault(request, []).append(outcome)


def serial_pass(client, ledger: Ledger, requests: List[Request]) -> List[float]:
    latencies = []
    for request in requests:
        start = time.perf_counter()
        ledger.send(client, request)
        latencies.append(time.perf_counter() - start)
    return latencies


def drive(seed: int, deadline: float, server: Server) -> dict:
    """The cold pass, then whole warm passes while the next one is expected
    to end before ``deadline`` (at least one)."""
    from repro.service.client import ServiceClient

    order = request_order(random.Random(seed))
    client = ServiceClient(server.url, timeout=60.0)
    ledger = Ledger()
    before = client.healthz()
    cold = serial_pass(client, ledger, order)
    after_cold = client.healthz()
    warm: List[float] = []
    warm_pass_s: List[float] = []
    while not warm_pass_s or time.perf_counter() + warm_pass_s[-1] < deadline:
        started = time.perf_counter()
        warm += serial_pass(client, ledger, order)
        warm_pass_s.append(time.perf_counter() - started)
    final = client.healthz()
    common.note(f"serve cold pass p50 {1000 * common.median(cold):.1f} ms; "
                f"{len(warm_pass_s)} warm passes of {len(order)} requests in "
                f"{', '.join(f'{t:.2f}' for t in warm_pass_s)} s, p50 {1000 * common.median(warm):.1f} ms")
    out = {
        "ledger": ledger,
        "cold": cold,
        "warm": warm,
        "warm_pass_s": warm_pass_s,
        "cold_eval_ms": 1000 * (after_cold["runtime"]["elapsed_seconds"]
                                - before["runtime"]["elapsed_seconds"]) / len(cold),
        "final": final,
        "rss_mib": common.peak_rss_mib(server.worker_pid),
    }
    client.close()
    return out


def _check_served(ledger: Ledger, final: dict) -> Tuple[List[str], float, float]:
    """Served reports equal in-process ``api.evaluate``; one evaluation per
    distinct request; Table IV accuracy against the reference simulator.
    Returns the problems, the mean accuracy and the geometric mean over the
    CNNs of the served grid's hypervolume."""
    from repro import api
    from repro.core.cost.export import report_to_dict
    from repro.synth.simulator import SynthesisSimulator

    problems = list(ledger.failures)
    expected = grid()
    if sorted(ledger.reports) != sorted(expected):
        problems.append(f"served {len(ledger.reports)} of {len(expected)} distinct requests")
    runtime = final["runtime"]
    if runtime["evaluations"] != len(expected):
        problems.append(f"/healthz counts {runtime['evaluations']} evaluations "
                        f"for {len(expected)} distinct requests")
    if final.get("errors", 0):
        problems.append(f"/healthz counts {final['errors']} errors")
    rows: Dict[str, Dict[str, List[float]]] = {}
    overall: List[float] = []
    points: Dict[str, List[checks.Point]] = {}
    control = None
    for request in expected:
        model, architecture, ce_count = request
        accelerator = api.build_accelerator(model, GRID_BOARD, architecture, ce_count=ce_count)
        local = report_to_dict(api.evaluate(model, GRID_BOARD, architecture, ce_count=ce_count))
        served = ledger.reports.get(request, [])
        problems += checks.equal_reports(f"served {request}", served, [local] * len(served))
        report = served[0] if served else local  # a missing one is already a problem
        control = control or report
        reference = SynthesisSimulator(accelerator).run()
        if reference.access_bytes != report["access_bytes"]["total"]:
            problems.append(f"{request}: off-chip accesses differ from the simulator")
        accuracy = checks.accuracy_rows(reference, report)
        for row, value in accuracy.items():
            rows.setdefault(architecture, {}).setdefault(row, []).append(value)
        overall.append(checks.mean(accuracy.values()))
        points.setdefault(model, []).append(
            (report["throughput_fps"], report["buffer_requirement_bytes"] / 2**20))
    for architecture, by_row in rows.items():
        for row, values in by_row.items():
            if checks.mean(values) <= 90.0:
                problems.append(f"Table IV {architecture} {row} average {checks.mean(values):.1f}% <= 90%")
    if control is not None:
        problems += [f"blind check: {b}" for b in checks.blind_controls(report=control)]
    volume = checks.geometric_mean([
        checks.hypervolume(front, checks.GRID_REFERENCE_COST_MIB[model])
        for model, front in points.items()
    ])
    return problems, checks.mean(overall), volume


def _launch(launcher: Optional[List[str]] = None) -> Server:
    server = Server(launcher)
    common.note(f"serve set-up {server.setup_s:.3f} s (worker pid {server.worker_pid})")
    return server


def run(seed: int, seconds: float, traced: bool):
    common.import_program()
    return _run_traced(seed) if traced else _run_plain(seed, seconds)


def _run_plain(seed: int, seconds: float):
    deadline = time.perf_counter() + seconds
    setups = []
    for _ in range(SETUP_LAUNCHES - 1):
        server = _launch()
        setups.append(server.setup_s)
        server.stop()
    server = _launch()
    setups.append(server.setup_s)
    try:
        result = drive(seed, deadline, server)
    finally:
        server.stop()
    ledger = result["ledger"]
    checked = time.perf_counter()
    problems, accuracy, volume = _check_served(ledger, result["final"])
    common.note(f"serve checks took {time.perf_counter() - checked:.1f} s")
    per_pass = len(grid())
    metrics = {
        "setup_s": (common.median(setups), "s"),
        "designs_per_s": (common.median([per_pass / t for t in result["warm_pass_s"]]), "1/s"),
        "peak_rss_mib": (result["rss_mib"], "MiB"),
        "front_hypervolume": (volume, "fps.MiB"),
        "accuracy_pct": (accuracy, "%"),
    }
    return problems, ledger.attempted, len(ledger.failures), metrics


def _run_traced(seed: int):
    """An untraced server, then a traced one, each through the cold pass
    and one warm pass."""
    server = _launch()
    try:
        baseline = drive(seed, 0.0, server)
    finally:
        server.stop()
    spans_path = common.WORK / f"server-spans-{seed}-{time.monotonic_ns()}.json"
    server = _launch([str(common.BENCH_DIR / "launch_server.py"), str(spans_path)])
    try:
        result = drive(seed, 0.0, server)
    finally:
        server.stop()
    server_spans = json.loads(spans_path.read_text())
    spans_path.unlink()
    ledger = result["ledger"]
    problems = _check_served(ledger, result["final"])[0]
    problems += _check_served(baseline["ledger"], baseline["final"])[0]
    requests = server_spans["service.handle"]["calls"]
    runtime, segments = result["final"]["runtime"], result["final"]["segment_cache"]
    lookups = segments["hits"] + segments["misses"]
    round_trips_ms = 1000 * (sum(result["cold"]) + sum(result["warm"]))
    metrics = {
        f"{name}_ms": (spans.self_ms(server_spans, name, requests), "ms")
        for name in spans.LAYER_TIMES
    }
    metrics.update({
        "other_ms": ((round_trips_ms - spans.covered_ms(server_spans)) / requests, "ms"),
        "runtime.hit_rate": (runtime["cache_hits"] / runtime["submitted"], "ratio"),
        "runtime.segcache.hit_rate": (segments["hits"] / lookups if lookups else 0.0, "ratio"),
        "runtime.segcache.block_evals": (segments["evaluations"], "count"),
        "trace.overhead_pct": (
            100.0 * (common.median(result["warm"]) / common.median(baseline["warm"]) - 1.0), "%"),
    })
    attempted = ledger.attempted + baseline["ledger"].attempted
    failed = len(ledger.failures) + len(baseline["ledger"].failures)
    return problems, attempted, failed, metrics
