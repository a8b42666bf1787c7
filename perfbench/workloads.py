"""The two workloads and the metrics they report.

Every workload runs *rounds*: a fixed list of operations, the same in
every round (serve-mix shuffles its warm rounds by the seed).  The timed
phase runs whole rounds until the next one would overrun ``--seconds``
(at least ``MIN_ROUNDS`` of them), so every run attempts whole rounds.

* ``cache-rerun`` — one round synthesizes the Table I suite cold at
  jobs=2 into an empty ``--cache readwrite`` root, drops the in-process
  memory tier with ``reset_fleet()``, and synthesizes it again warm from
  sqlite.
* ``serve-mix`` — one round is a list of small-circuit requests that two
  closed-loop clients (one tenant each) send in the same order to a
  ``ddbdd serve`` subprocess, so each circuit is in flight from both
  clients at once.  All rounds share one cache root, so the first round
  is cold and later rounds are warm.

Every synthesis gets a freshly built input network (a reused network
keeps its BDD manager's operation caches and makes later runs look
faster than a user's would).  Outputs are checked after the timed phase
by :mod:`checker`, which does not use the program.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

import checker
from measure import beyond, percentile
from tracer import Tracer

K = 5

#: Small circuits for serve-mix, with how often each appears in one
#: client's round.  ``cm163a`` and ``mux`` trip the claim stall (see the
#: README); the counts put the median request inside one circuit's block
#: of warm latencies, which keeps ``latency_p50_s`` steady across seeds.
SERVE_POOL: Dict[str, int] = {
    "cm163a": 2,
    "mux": 2,
    "9sym": 1,
    "z4ml": 1,
    "t481": 1,
    "parity": 1,
    "count": 1,
    "pcle": 1,
}
SERVE_CLIENTS = 2

MIN_ROUNDS = 2
#: Workloads whose synthesis runs in the benchmark process (and its pool
#: workers); serve-mix synthesizes inside the daemon.
IN_PROCESS = ("cache-rerun",)


@dataclass
class Op:
    circuit: str
    seconds: float
    ok: bool = True
    phase: str = ""


@dataclass
class Round:
    seconds: float
    ops: List[Op]
    parts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Output:
    """One produced output, checked after the timed phase."""

    circuit: str
    blif: str
    depth: int
    area: int
    op: Op
    stats: Dict[str, Any] = field(default_factory=dict)
    states: int = 0


class Context:
    """Per-run state: arguments, scratch directory, tracer, problems."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 tracer: Optional[Tracer]) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.scratch = root / ".perfbench" / f"run-{os.getpid()}"
        self.problems: List[str] = []
        self.info: Dict[str, Any] = {}

    def span(self, name: str, request: str = "") -> Any:
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, request)


def timed_rounds(ctx: Context, run_round: Callable[[int], Round]) -> List[Round]:
    """Run whole rounds until the next would overrun ``ctx.seconds``."""
    rounds: List[Round] = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(run_round(len(rounds)))
        elapsed = time.perf_counter() - t0
        last = time.perf_counter() - r0
        if len(rounds) >= MIN_ROUNDS and elapsed + last > ctx.seconds:
            return rounds


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_outputs(ctx: Context, sources: Dict[str, str], outputs: List[Output]) -> Dict[str, Tuple[int, int]]:
    """Check every output; marks failed ops, returns recomputed
    ``(depth, luts)`` per circuit.  Identical outputs are simulated once."""
    t0 = time.perf_counter()
    verdicts: Dict[Tuple[str, str, int, int], checker.CheckResult] = {}
    qor: Dict[str, Tuple[int, int]] = {}
    for out in outputs:
        key = (out.circuit, out.blif, out.depth, out.area)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = checker.check_mapping(
                sources[out.circuit], out.blif, K, out.depth, out.area, seed=ctx.seed
            )
            for problem in verdict.problems:
                ctx.problems.append(f"{out.circuit}: {problem}")
        if not verdict.ok:
            out.op.ok = False
        elif qor.setdefault(out.circuit, (verdict.depth, verdict.luts)) != (verdict.depth, verdict.luts):
            ctx.problems.append(f"{out.circuit}: QoR differs between runs of one input")
            out.op.ok = False
    ctx.info["check_s"] = round(time.perf_counter() - t0, 3)
    return qor


def require_identical(ctx: Context, what: str, outputs: List[Output], reference: Dict[str, str]) -> None:
    """Byte-identity property: every output equals ``reference[circuit]``."""
    for out in outputs:
        if out.blif != reference[out.circuit]:
            ctx.problems.append(f"{out.circuit}: {what}")
            out.op.ok = False


# ----------------------------------------------------------------------
# Shared metrics
# ----------------------------------------------------------------------
def common_metrics(rounds: List[Round], qor: Dict[str, Tuple[int, int]]) -> Dict[str, float]:
    ops = [op for r in rounds for op in r.ops]
    latencies = [op.seconds for op in ops]
    timed = sum(r.seconds for r in rounds)
    return {
        "wall_s": median([r.seconds for r in rounds]),
        "throughput_rps": len(ops) / timed,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "depth_total": sum(d for d, _ in qor.values()),
        "luts_total": sum(n for _, n in qor.values()),
    }


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Wrapped layers whose self time is reported, with the metric name.
SELF_TIME_METRICS = {
    "reorder": "reorder.s",
    "leveled.cut_set": "leveled.cut_set_s",
    "linear.candidates": "linear.candidates_s",
    "binpack.pack_or_cost": "binpack.pack_or_cost_s",
    "binpack.pack_or_gates": "binpack.pack_or_gates_s",
    "dp.synthesize": "dp.synthesize_self_s",
    "dp.emit": "dp.emit_self_s",
    "collapse.merge_test": "collapse.merge_test_s",
    "map.cover_network": "map.cover_network_s",
    "map.lut_pack": "map.lut_pack_s",
    "map.merge_duplicates": "map.merge_duplicates_s",
    "signature": "signature.s",
    "emission.export": "emission.export_s",
    "emission.replay": "emission.replay_s",
    "emission.verify_record": "emission.verify_record_s",
    "tiers.get": "tiers.get_s",
    "tiers.put": "tiers.put_s",
    "tiers.claim_poll": "tiers.claim_poll_s",
    "pool.batch": "pool.batch_s",
    "fleet.run_wave": "fleet.run_wave_s",
}
CALL_METRICS = {
    "collapse.merge_test": "collapse.merge_tests",
    "reorder": "reorder.calls",
    "leveled.cut_set": "leveled.cut_set_calls",
    "linear.candidates": "linear.candidates_calls",
    "binpack.pack_or_cost": "binpack.pack_or_cost_calls",
    "emission.verify_record": "emission.verify_record_calls",
    "tiers.get": "tiers.get_calls",
    "tiers.put": "tiers.put_calls",
    "tiers.claim_poll": "tiers.claim_polls",
}
#: Spans the benchmark itself opens around calls into the program; their
#: self time is the part of a round no traced layer accounts for.
ROOT_SPANS = ("synthesis", "reset_fleet")


def published_metrics(stats_rows: List[Dict[str, Any]], hit_rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """Layer metrics read from the program's own ``RuntimeStats.as_dict()``
    payloads: pass rows, stage seconds, claims and tier counters.
    ``hit_rows`` are the runs whose lookups define ``tiers.hit_ratio``."""
    passes = [p for s in stats_rows for p in s.get("passes", [])]
    hits = sum(p["bdd_cache_hits"] for p in passes)
    misses = sum(p["bdd_cache_misses"] for p in passes)
    lookups = sum(s["cache_hits"] + s["cache_misses"] for s in hit_rows)
    return {
        "collapse.s": sum(p["seconds"] for p in passes if p["name"] == "collapse"),
        "map.s": sum(p["seconds"] for p in passes if p["name"] == "map"),
        "bdd.nodes_created": sum(p["bdd_nodes_created"] for p in passes),
        "bdd.op_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "tiers.hit_ratio": sum(s["cache_hits"] for s in hit_rows) / lookups if lookups else 0.0,
        "tiers.shards_misses": sum(
            s.get("cache_tiers", {}).get("shards", {}).get("misses", 0) for s in stats_rows
        ),
        "tiers.claim_wait_s": sum(s["stage_seconds"].get("claim", 0.0) for s in stats_rows),
        "tiers.claims_reaped": sum(s.get("claims", {}).get("reaped", 0) for s in stats_rows),
    }


def layer_totals(self_s: Dict[str, float], calls: Dict[str, int],
                 counts: Dict[str, int]) -> Dict[str, float]:
    """Self times and call counts of the wrapped layers."""
    out: Dict[str, float] = {}
    for layer, metric in SELF_TIME_METRICS.items():
        out[metric] = self_s.get(layer, 0.0)
    for layer, metric in CALL_METRICS.items():
        out[metric] = calls.get(layer, 0)
    out["pool.jobs"] = counts.get("pool.jobs", 0)
    return out


def in_process_layers(ctx: Context, timed_s: float) -> Dict[str, float]:
    """Layer totals of an in-process workload and its unattributed
    remainder: the self time of the benchmark's own spans around each
    synthesis and ``reset_fleet()``.  Together they add up to the timed
    rounds."""
    if ctx.tracer is None:
        return {}
    tracer = ctx.tracer
    out = layer_totals(tracer.self_s, tracer.calls, tracer.counts)
    unattributed = sum(tracer.self_s.get(name, 0.0) for name in ROOT_SPANS)
    attributed = sum(v for k, v in tracer.self_s.items() if k not in ROOT_SPANS)
    # The timed rounds also hold each span's own enter/exit cost (tens of
    # microseconds per synthesis), hence the tolerance.
    if abs(attributed + unattributed - timed_s) > 1e-3 * timed_s:
        raise AssertionError(
            f"layer self times ({attributed:.4f} s) plus the unattributed "
            f"{unattributed:.4f} s do not add up to the traced rounds ({timed_s:.4f} s)"
        )
    out["trace.unattributed_s"] = unattributed
    ctx.info["partition_s"] = {
        **{k: v for k, v in sorted(tracer.self_s.items()) if k not in ROOT_SPANS},
        "unattributed": unattributed, "timed": timed_s,
    }
    return out


def _output(result: Any, op: Op) -> Output:
    """The checked output of one in-process synthesis, with its
    published stats and the DP states its supernodes visited."""
    from repro.network import network_to_blif

    return Output(
        op.circuit, network_to_blif(result.network), result.depth, result.area, op,
        result.runtime_stats.as_dict() if result.runtime_stats is not None else {},
        sum(sn.states_visited for sn in result.supernodes),
    )


# ----------------------------------------------------------------------
# cache-rerun: in-process synthesis
# ----------------------------------------------------------------------
def prepare_sources(circuits: List[str]) -> Dict[str, str]:
    """Source BLIF of each circuit, for the checker."""
    from repro.benchgen import build_circuit
    from repro.network import network_to_blif

    return {name: network_to_blif(build_circuit(name)) for name in sorted(set(circuits))}


def setup(workload: str, seed: int, scratch: Optional[Path] = None,
          traced: bool = False) -> Dict[str, Any]:
    """Everything before the first timed operation: imports, the first
    input and, for serve-mix, a daemon that has printed its listening
    line."""
    from repro.benchgen import TABLE1_SUITE, build_circuit
    import repro.flow  # noqa: F401  (else the first synthesis imports the pass pipeline)

    if workload == "serve-mix":
        trace_out = scratch / "daemon-trace.json" if traced and scratch else None
        return {"stream": serve_stream(seed), "daemon": Daemon.start(scratch, trace_out),
                "trace_out": trace_out}
    # The Table I order is fixed: the first synthesis of a cold pass also
    # pays for the pool start and the sqlite file, and a seeded order
    # would move that cost from circuit to circuit.
    suite = list(TABLE1_SUITE)
    return {"suite": suite, "first": build_circuit(suite[0])}


def _suite_pass(ctx: Context, state: Dict[str, Any], config: Any, i: int,
                phase: str) -> Tuple[float, List[Output]]:
    """Synthesize the suite once; returns the summed synthesis time and
    the outputs.  Each input is built just before, and each result turned
    into its output just after, its timed synthesis: the benchmark's own
    objects must not pile up in the heap the program's garbage collector
    walks."""
    from repro.benchgen import build_circuit
    from repro.core import ddbdd_synthesize

    seconds = 0.0
    outputs: List[Output] = []
    for name in state["suite"]:
        net = state.pop("first", None) or build_circuit(name)
        t0 = time.perf_counter()
        with ctx.span("synthesis", request=f"{name}/{phase}#{i}"):
            result = ddbdd_synthesize(net, config)
        op = Op(name, time.perf_counter() - t0, phase=phase)
        seconds += op.seconds
        outputs.append(_output(result, op))
        del net, result
    return seconds, outputs


def run_cache_rerun(ctx: Context, state: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core import DDBDDConfig
    from repro.runtime.fleet import get_fleet, reset_fleet

    suite: List[str] = state["suite"]
    cold: List[Output] = []
    warm: List[Output] = []
    fleet_totals: Dict[str, int] = {"dedup_hits": 0, "jobs_computed": 0}

    def note_fleet() -> None:
        snap = get_fleet().snapshot()
        for key in fleet_totals:
            fleet_totals[key] += snap[key]

    def one_round(i: int) -> Round:
        cache_root = ctx.scratch / f"cache-{i}"
        shutil.rmtree(cache_root, ignore_errors=True)
        cache_root.mkdir(parents=True)
        config = DDBDDConfig(jobs=2, cache="readwrite", cache_dir=str(cache_root))
        cold_s, cold_outs = _suite_pass(ctx, state, config, i, "cold")
        note_fleet()
        # Drop the memory tier (and the pool): the warm pass reads
        # sqlite, as a second `ddbdd synth --cache readwrite` would.
        t0 = time.perf_counter()
        with ctx.span("reset_fleet"):
            reset_fleet()
        reset_s = time.perf_counter() - t0
        warm_s, warm_outs = _suite_pass(ctx, state, config, i, "warm")
        note_fleet()
        reset_fleet()
        shutil.rmtree(cache_root, ignore_errors=True)
        cold.extend(cold_outs)
        warm.extend(warm_outs)
        return Round(cold_s + reset_s + warm_s, [o.op for o in cold_outs + warm_outs],
                     {"cold": cold_s, "warm": warm_s})

    rounds = timed_rounds(ctx, one_round)
    # Determinism: a warm (replayed) cover is byte-identical to the cold one.
    for start in range(0, len(cold), len(suite)):
        cold_round = {o.circuit: o.blif for o in cold[start:start + len(suite)]}
        require_identical(ctx, "warm BLIF differs from the cold BLIF",
                          warm[start:start + len(suite)], cold_round)
    qor = check_outputs(ctx, prepare_sources(suite), cold + warm)
    metrics = common_metrics(rounds, qor)
    metrics["cold_s"] = median([r.parts["cold"] for r in rounds])
    metrics["warm_s"] = median([r.parts["warm"] for r in rounds])
    # The pool workers are joined by reset_fleet(), so RUSAGE_CHILDREN
    # already holds their peak.
    metrics["peak_rss_mb"] = max(self_rss_mb(), children_rss_mb())
    layers = published_metrics([o.stats for o in cold + warm], [o.stats for o in warm])
    layers["dp.states"] = sum(o.states for o in cold + warm)
    layers["fleet.dedup_hits"] = fleet_totals["dedup_hits"]
    layers["fleet.jobs_computed"] = fleet_totals["jobs_computed"]
    layers.update(in_process_layers(ctx, sum(r.seconds for r in rounds)))
    return finish(ctx, rounds, metrics, layers)


# ----------------------------------------------------------------------
# serve-mix: a daemon subprocess and two closed-loop clients
# ----------------------------------------------------------------------
class Daemon:
    """A ``ddbdd serve --port 0`` subprocess."""

    def __init__(self, proc: subprocess.Popen, port: int) -> None:
        self.proc = proc
        self.port = port

    @staticmethod
    def start(scratch: Optional[Path], trace_out: Optional[Path] = None) -> "Daemon":
        """Start the daemon; with ``trace_out`` it runs under the layer
        wrappers and writes their totals there on exit."""
        if trace_out is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            command = [sys.executable, str(Path(__file__).with_name("traced_serve.py")),
                       str(trace_out)]
        err = open(scratch / "daemon.err", "w") if scratch else subprocess.DEVNULL
        proc = subprocess.Popen(
            command + ["serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=err, text=True,
        )
        if scratch:
            err.close()  # type: ignore[union-attr]
        assert proc.stdout is not None
        line = proc.stdout.readline()
        marker = "listening on http://"
        if marker not in line:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"daemon did not start: {line!r}")
        port = int(line.strip().rsplit(":", 1)[1])
        return Daemon(proc, port)

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=150)
        try:
            body = json.dumps(payload) if payload is not None else None
            conn.request(method, path, body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> str:
        """SIGTERM, wait for the drain, return the daemon's last line
        ("" when it was already stopped)."""
        if self.proc.returncode is not None:
            return ""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return (out or "").strip()


def serve_stream(seed: int) -> Callable[[int], List[str]]:
    """The per-round request list (both clients send it).  The first,
    cold round sends the pool in a fixed order, so the cold cost does not
    depend on the seed; later rounds are seeded shuffles of it."""
    rng = random.Random(seed)
    pool = [name for name, n in sorted(SERVE_POOL.items()) for _ in range(n)]
    return lambda i: list(pool) if i == 0 else rng.sample(pool, len(pool))


def run_serve_mix(ctx: Context, state: Dict[str, Any]) -> Dict[str, Any]:
    from repro.benchgen import build_circuit
    from repro.core import DDBDDConfig, ddbdd_synthesize
    from repro.network import network_to_blif

    daemon: Daemon = state["daemon"]
    cache_root = ctx.scratch / "serve-cache"
    cache_root.mkdir(parents=True, exist_ok=True)
    stream = state["stream"]
    replies: List[Tuple[Op, int, Any, float]] = []
    peak_rss: List[float] = []
    lock = threading.Lock()

    def client(index: int, order: List[str], i: int, sink: List[Op], errors: List[str]) -> None:
        tenant = f"client{index}"
        for name in order:
            payload = {
                "benchmark": name, "mode": "sync", "emit": "blif", "tenant": tenant,
                "config": {"cache": "readwrite", "cache_dir": str(cache_root)},
            }
            t0 = time.perf_counter()
            try:
                with ctx.span("serve.request", request=f"{tenant}:{name}#{i}"):
                    status, body = daemon.request("POST", "/v1/synthesize", payload)
            except (OSError, ValueError) as exc:
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
                status, body = 0, {}
            rtt = time.perf_counter() - t0
            op = Op(name, rtt, ok=status == 200, phase="cold" if i == 0 else "warm")
            sink.append(op)
            with lock:
                replies.append((op, status, body, rtt))

    def one_round(i: int) -> Round:
        order = stream(i)
        sinks: List[List[Op]] = [[] for _ in range(SERVE_CLIENTS)]
        errors: List[str] = []
        threads = [
            threading.Thread(target=client, args=(c, order, i, sinks[c], errors))
            for c in range(SERVE_CLIENTS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170)
            if t.is_alive():
                raise RuntimeError("a serve client did not finish its round")
        seconds = time.perf_counter() - t0
        ctx.problems.extend(errors)
        if i == 1:
            # Peak RSS through the cold and the first warm round: a fixed
            # amount of work, so a faster daemon serving more requests in
            # the run does not read as a memory regression.
            peak_rss.append(daemon.peak_rss_mb())
        return Round(seconds, [op for sink in sinks for op in sink])

    try:
        rounds = timed_rounds(ctx, one_round)
        _status, metrics_body = daemon.request("GET", "/metrics")
        ctx.info["daemon_rss_end_mb"] = daemon.peak_rss_mb()
    finally:
        last_line = daemon.stop()
    if "drained" not in last_line:
        ctx.problems.append(f"daemon did not drain cleanly: {last_line!r}")

    # Reference covers: a serial in-process synthesis of each circuit,
    # outside the timed phase.  Every reply must be byte-identical to it.
    reference: Dict[str, str] = {}
    outputs: List[Output] = []
    for name in sorted(SERVE_POOL):
        result = ddbdd_synthesize(build_circuit(name), DDBDDConfig())
        reference[name] = network_to_blif(result.network)
        outputs.append(Output(name, reference[name], result.depth, result.area, Op(name, 0.0)))
    qor = check_outputs(ctx, prepare_sources(list(SERVE_POOL)), outputs)
    for out in outputs:
        if not out.op.ok:
            ctx.problems.append(f"{out.circuit}: the serial reference cover is wrong")
    stats_rows: List[Dict[str, Any]] = []
    queue_wait: List[float] = []
    run_s: List[float] = []
    http_s: List[float] = []
    for op, status, body, rtt in replies:
        if status != 200:
            ctx.problems.append(f"{op.circuit}: HTTP {status}: {str(body)[:200]}")
            op.ok = False
            continue
        result = body.get("result") or {}
        blif = result.get("blif", "")
        if blif != reference[op.circuit]:
            ctx.problems.append(f"{op.circuit}: reply differs from the serial cover")
            op.ok = False
        elif (result.get("depth"), result.get("area")) != qor.get(op.circuit):
            ctx.problems.append(f"{op.circuit}: reply reports depth/area "
                                f"{result.get('depth')}/{result.get('area')}, recomputed {qor.get(op.circuit)}")
            op.ok = False
        stats_rows.append(result.get("stats") or {})
        queue_wait.append(body["started_s"] - body["queued_s"])
        run_s.append(body["finished_s"] - body["started_s"])
        http_s.append(rtt - (body["finished_s"] - body["queued_s"]))

    metrics = common_metrics(rounds, qor)
    metrics["cold_s"] = rounds[0].seconds
    metrics["warm_s"] = median([r.seconds for r in rounds[1:]])
    # Steady state: the warm rounds' requests per second.
    metrics["throughput_rps"] = (
        sum(len(r.ops) for r in rounds[1:]) / sum(r.seconds for r in rounds[1:])
    )
    metrics["peak_rss_mb"] = peak_rss[0]
    layers = published_metrics(stats_rows, stats_rows)
    fleet = metrics_body.get("fleet", {}) if isinstance(metrics_body, dict) else {}
    layers.update({
        "fleet.dedup_hits": fleet.get("dedup_hits", 0),
        "fleet.jobs_computed": fleet.get("jobs_computed", 0),
        "serve.queue_wait_s": median(queue_wait) if queue_wait else 0.0,
        "serve.run_s": median(run_s) if run_s else 0.0,
        "serve.http_s": median(http_s) if http_s else 0.0,
    })
    if state["trace_out"] is not None:
        with open(state["trace_out"], encoding="utf-8") as fh:
            dump = json.load(fh)
        layers.update(layer_totals(dump["self_s"], dump["calls"], dump["counts"]))
        # Per client: its timed rounds are its requests' queue wait,
        # HTTP handling and daemon run time, plus its own gaps between
        # requests; the daemon's run time splits into the traced layers
        # and a remainder.  Layer totals are shared by the two clients.
        timed = sum(r.seconds for r in rounds)
        partition = {k: v / SERVE_CLIENTS for k, v in dump["self_s"].items()}
        partition["serve.queue_wait"] = sum(queue_wait) / SERVE_CLIENTS
        partition["serve.http"] = sum(http_s) / SERVE_CLIENTS
        layers["trace.unattributed_s"] = timed - sum(partition.values())
        ctx.info["partition_s"] = {**dict(sorted(partition.items())),
                                   "unattributed": layers["trace.unattributed_s"],
                                   "timed": timed}
    return finish(ctx, rounds, metrics, layers)


#: Every per-layer metric; a layer a workload does not exercise reads 0.
PER_LAYER = sorted(
    list(SELF_TIME_METRICS.values()) + list(CALL_METRICS.values()) + [
        "pool.jobs", "collapse.s", "map.s", "bdd.nodes_created",
        "bdd.op_cache_hit_ratio", "tiers.hit_ratio", "tiers.shards_misses",
        "tiers.claim_wait_s", "tiers.claims_reaped", "dp.states",
        "fleet.dedup_hits", "fleet.jobs_computed", "serve.queue_wait_s",
        "serve.run_s", "serve.http_s", "trace.wall_s", "trace.timed_s",
        "trace.unattributed_s",
    ]
)


def finish(ctx: Context, rounds: List[Round], metrics: Dict[str, float],
           layers: Dict[str, float]) -> Dict[str, Any]:
    ops = [op for r in rounds for op in r.ops]
    per_layer: Dict[str, float] = {name: 0 for name in PER_LAYER}
    per_layer.update(layers)
    per_layer["trace.wall_s"] = metrics["wall_s"]
    per_layer["trace.timed_s"] = sum(r.seconds for r in rounds)
    unknown = set(per_layer) - set(PER_LAYER)
    if unknown:
        raise AssertionError(f"undeclared per-layer metrics {sorted(unknown)}")
    ctx.info["rounds"] = len(rounds)
    ctx.info["ops"] = len(ops)
    ctx.info["samples_beyond_p90"] = beyond([op.seconds for op in ops], 90)
    by_circuit: Dict[str, List[float]] = {}
    for op in ops:
        by_circuit.setdefault(f"{op.circuit}/{op.phase}" if op.phase else op.circuit, []).append(op.seconds)
    ctx.info["circuit_median_s"] = {k: round(median(v), 4) for k, v in sorted(by_circuit.items())}
    return {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op.ok),
        "correct": not ctx.problems,
        "end_to_end": metrics,
        "per_layer": per_layer,
    }


RUNNERS = {
    "cache-rerun": run_cache_rerun,
    "serve-mix": run_serve_mix,
}
