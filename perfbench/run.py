"""End-to-end serving benchmark: open-loop workloads against ``repro serve``.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The first run trains the demo
checkpoint into ``.bench_build/perfbench/`` (fixed seed, untimed).
Each run builds the workload's seeded open-loop schedule, one third of
``--seconds`` long, and replays it in three rounds, each on a freshly
spawned ``repro serve --checkpoint <ckpt> --replicas 2 --kernels fp32
--retrieval --speculative``.  A round times spawn -> first 200 from
``/api/health``, sends fixed warm-up requests, snapshots
``/api/metrics`` and the server's CPU time, and sends every request at
its due time over at most ``nproc`` connections.  Every response of
every round is checked against an in-process sequential decode of the
same checkpoint and payload (``oracle.py``).

Latencies are timed from when a request was due.  A request's latency
is the best of its three replays, because load from other tenants of a
shared host only ever adds time; percentiles are then taken across
requests.  ``setup_s`` is the median of the three spawns.

The last line of standard output is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  A
traced run replays the schedule four times, alternating untraced and
traced servers (spans recorded by ``launch.py``); counters come from
the last traced server's own ``/api/metrics``, self times from its
spans, and the difference between the best-of-two traced and untraced
replays is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

#: ``repro serve`` flags: the canonical fleet plus the speculative draft.
SERVE_FLAGS = ["--replicas", "2", "--kernels", "fp32", "--retrieval",
               "--speculative"]
#: Demo checkpoint: the ``repro serve`` on-the-fly defaults.
TRAIN_RECIPES, TRAIN_STEPS, TRAIN_SEED = 120, 200, 0
#: Each run replays its schedule on this many fresh servers (sharing
#: ``--seconds`` between them); ``setup_s`` is the median spawn time.
ROUNDS = 3
#: A run whose generator sent requests later than this (p99, while a
#: connection was free) is discarded, not reported.
LATENESS_BOUND_MS = 25.0
#: Per-request socket timeout; requests not sent by the last due time
#: plus this much are failed unsent, so a stalled server ends the run.
REQUEST_TIMEOUT_S = 30.0
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


# ---------------------------------------------------------------------
# Build: the demo checkpoint
# ---------------------------------------------------------------------
def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def ensure_checkpoint() -> Path:
    """Train (once per source tree) and return the demo checkpoint."""
    target = BUILD / f"ckpt-{source_digest()}"
    if (target / "weights.npz").is_file():
        return target
    from repro.core import PipelineConfig, Ratatouille
    from repro.training import TrainingConfig

    print(f"training demo checkpoint ({TRAIN_RECIPES} recipes, "
          f"{TRAIN_STEPS} steps) into {target}", flush=True)
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=TRAIN_STEPS, batch_size=8,
                                eval_every=10 ** 9))
    pipeline = Ratatouille.quickstart(model_name="distilgpt2",
                                      num_recipes=TRAIN_RECIPES,
                                      seed=TRAIN_SEED, config=config)
    staging = target.with_name(target.name + ".tmp")
    for stale in (staging, target):
        shutil.rmtree(stale, ignore_errors=True)
    pipeline.save(staging)
    staging.rename(target)
    return target


def launch_environment(seed: int, argv: List[str]) -> dict:
    import numpy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps["blas"].get(key) for key in ("name", "version")}
    except (TypeError, KeyError):  # older numpy: record it as unknown
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    threads = {name: os.environ.get(name) for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    return {"nproc": os.cpu_count(), "blas": blas, "thread_env": threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "source_digest": source_digest(),
            "server_argv": argv, "seed": seed}


# ---------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``repro serve`` child; ``setup_s`` is spawn -> first 200."""

    def __init__(self, checkpoint: Path, trace_out: Optional[Path]) -> None:
        self.port = free_port()
        self.argv = ["serve", "--checkpoint", str(checkpoint),
                     "--port", str(self.port), *SERVE_FLAGS]
        command = [sys.executable, str(HERE / "launch.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", *self.argv]
        self.log = open(BUILD / "server.log", "ab")
        start = time.monotonic()
        self.proc = subprocess.Popen(command, cwd=ROOT, stdout=self.log,
                                     stderr=self.log)
        try:
            self._wait_healthy(start + 60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - start

    def _wait_healthy(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}"
                                   f" before becoming healthy; see "
                                   f"{BUILD / 'server.log'}")
            try:
                status, _ = self.get("/api/health", timeout=1.0)
                if status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.005)
        raise RuntimeError("server did not become healthy in time")

    def get(self, path: str, timeout: float = 10.0):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict:
        status, body = self.get("/api/metrics")
        if status != 200:
            raise RuntimeError(f"/api/metrics answered {status}")
        return json.loads(body)["metrics"]

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(
            ")", 1)[1].split()
        # utime and stime are fields 14 and 15 (1-based) of the stat line.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_peak_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text(
                ).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()


# ---------------------------------------------------------------------
# The open-loop client
# ---------------------------------------------------------------------
@dataclass
class Outcome:
    request: object
    due: float = 0.0
    free: float = 0.0
    sent: float = 0.0
    status: Optional[int] = None
    first_token: Optional[float] = None
    last_token: Optional[float] = None
    finished: Optional[float] = None
    tokens: List[int] = field(default_factory=list)
    recipe: Optional[dict] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.recipe is not None

    @property
    def conn_wait(self) -> float:
        return max(0.0, self.free - self.due)

    @property
    def lateness(self) -> float:
        return self.sent - max(self.due, self.free)


def stream(port: int, payload: dict, outcome: Outcome) -> None:
    """POST to /api/generate_stream and read the SSE events."""
    body = json.dumps(payload).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        outcome.sent = time.monotonic()
        conn.request("POST", "/api/generate_stream", body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        outcome.status = response.status
        if response.status != 200:
            outcome.error = f"HTTP {response.status}: " \
                            f"{response.read()[:200]!r}"
            return
        while True:
            line = response.readline()
            if not line:
                break
            if not line.startswith(b"data: "):
                continue
            now = time.monotonic()
            event = json.loads(line[6:])
            if "token" in event:
                if outcome.first_token is None:
                    outcome.first_token = now
                outcome.last_token = now
                outcome.tokens.append(event["token"])
            elif event.get("done"):
                outcome.finished = now
                outcome.recipe = event["recipe"]
            elif "error" in event:
                outcome.error = f"error event: {event['error']}"
        if outcome.recipe is None and outcome.error is None:
            outcome.error = "stream ended without a done event"
    except (OSError, http.client.HTTPException, ValueError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    finally:
        conn.close()


def drive(port: int, requests, connections: int) -> List[Outcome]:
    """Send every request at its due time over <= ``connections``
    connections; returns outcomes in schedule order."""
    outcomes = [Outcome(request) for request in requests]
    cursor = iter(range(len(outcomes)))
    lock = threading.Lock()
    start = time.monotonic() + 0.05
    give_up = start + max(r.due for r in requests) + REQUEST_TIMEOUT_S

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            outcome = outcomes[index]
            outcome.free = time.monotonic()
            outcome.due = start + outcome.request.due
            if outcome.free > give_up:
                outcome.error = "not sent: the round ran out of time"
                continue
            delay = outcome.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            stream(port, outcome.request.payload, outcome)

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def warm_up(port: int) -> None:
    from workloads import warmup_payloads

    for payload in warmup_payloads():
        outcome = Outcome(None)
        stream(port, payload, outcome)
        if not outcome.ok:
            raise RuntimeError(f"warm-up request failed: {outcome.error}")


# ---------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------
@dataclass
class Round:
    """One fresh server driven through the whole schedule."""

    outcomes: List[Outcome]
    setup_s: float
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    before: dict
    after: dict
    server_argv: List[str]
    spans: Optional[list] = None


def run_round(checkpoint: Path, requests, traced: bool) -> Round:
    trace_out = BUILD / "spans.jsonl" if traced else None
    if trace_out is not None:
        trace_out.unlink(missing_ok=True)
    server = ServerProcess(checkpoint, trace_out)
    try:
        warm_up(server.port)
        before = server.metrics()
        cpu0 = server.cpu_seconds()
        start = time.monotonic()
        outcomes = drive(server.port, requests, os.cpu_count() or 1)
        end = time.monotonic()
        cpu1 = server.cpu_seconds()
        after = server.metrics()
        rss = server.rss_peak_mb()
    finally:
        server.stop()
    spans = None
    if trace_out is not None:
        with open(trace_out, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
    return Round(outcomes, server.setup_s, start, end, cpu1 - cpu0, rss,
                 before, after, server.argv, spans)


# ---------------------------------------------------------------------
# Checking and summarising
# ---------------------------------------------------------------------
def check_outputs(round_: Round, oracle, digests: Dict[str, str]
                  ) -> Dict[str, int]:
    """Mark wrong answers as errors; returns counts by outcome kind.

    ``digests`` maps an MCTS payload to the digest of its first answer,
    shared across rounds and (through ``mcts_digest_book``) across runs
    in one checkout: every answer to the same search must repeat it."""
    from oracle import digest

    counts: Dict[str, int] = defaultdict(int)
    for outcome in round_.outcomes:
        if outcome.ok:
            flags = [name for name in ("degraded", "partial",
                                       "retrieval_degraded")
                     if outcome.recipe.get(name)]
            if flags:
                outcome.error = f"response flagged {flags}"
            else:
                outcome.error = oracle.check(outcome.request, outcome.tokens,
                                             outcome.recipe)
            if outcome.error is None and outcome.request.kind == "mcts":
                key = hashlib.sha256(json.dumps(
                    outcome.request.payload, sort_keys=True).encode()
                ).hexdigest()[:24]
                value = digest(outcome.tokens)
                if digests.setdefault(key, value) != value:
                    outcome.error = "mcts digest differs from an earlier " \
                                    "answer to the same payload"
            if outcome.error is not None:
                counts["wrong_output"] += 1
                continue
            counts["ok"] += 1
        elif outcome.status is not None and outcome.status != 200:
            counts["non_2xx"] += 1
        else:
            counts["failed"] += 1
    return dict(counts)


def mcts_digest_book() -> Path:
    return BUILD / f"mcts-digests-{source_digest()}.json"


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def best_of(rounds: List[Round], value) -> List[float]:
    """Per request, the lowest ``value`` over its replays; requests that
    failed in any round, or have no value, are left out.  Co-tenant load
    on a shared host only ever adds time, so the best replay is the
    estimate of what the server itself costs."""
    best = []
    for replays in zip(*(r.outcomes for r in rounds)):
        if all(o.error is None for o in replays):
            values = [value(o) for o in replays]
            if None not in values:
                best.append(min(values))
    return best


def end_to_end(rounds: List[Round]) -> dict:
    latency = best_of(rounds, lambda o: (o.finished - o.due) * 1e3)
    ttft = best_of(rounds, lambda o: (o.first_token - o.due) * 1e3
                   if o.first_token is not None else None)
    tpot = best_of(rounds, lambda o: (o.last_token - o.first_token) * 1e3
                   / (len(o.tokens) - 1)
                   if o.request.kind != "mcts" and len(o.tokens) > 1
                   else None)
    tail = tail_percentile(len(latency))
    sent = sum(len(r.outcomes) for r in rounds)
    ok = sum(1 for r in rounds for o in r.outcomes if o.error is None)
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "ttft_p50_ms": percentile(ttft, 50),
        "ttft_tail_ms": percentile(ttft, tail),
        "latency_p50_ms": percentile(latency, 50),
        "latency_tail_ms": percentile(latency, tail),
        "tpot_p50_ms": percentile(tpot, 50),
        "server_cpu_ms_per_req": min(
            r.cpu_s * 1e3 / max(1, sum(o.error is None for o in r.outcomes))
            for r in rounds),
        "server_rss_peak_mb": statistics.median(r.rss_mb for r in rounds),
        "success_ratio": ok / sent,
        "_tail_percentile": tail,
        "_tail_samples": len(latency),
    }


def generator_report(rounds: List[Round]) -> dict:
    sent = [o for r in rounds for o in r.outcomes if o.sent]
    late = [o.lateness * 1e3 for o in sent]
    wait = [o.conn_wait * 1e3 for o in sent]
    return {"dispatch_late_p50_ms": percentile(late, 50),
            "dispatch_late_p99_ms": percentile(late, 99),
            "conn_wait_mean_ms": statistics.fmean(wait) if wait else 0.0,
            "conn_wait_p99_ms": percentile(wait, 99)}


class Counters:
    """Diffs of the server's own ``/api/metrics`` series over a round."""

    def __init__(self, before: dict, after: dict) -> None:
        self.before, self.after = before, after

    @staticmethod
    def _sum(snapshot: dict, name: str, part: str, labels: dict) -> float:
        total = 0.0
        for series in snapshot.get(name, {}).get("series", []):
            if all(series["labels"].get(k) == v for k, v in labels.items()):
                value = series.get(part, 0.0)
                total += value if value == value else 0.0  # NaN -> 0
        return total

    def delta(self, name: str, part: str = "value", **labels) -> float:
        return (self._sum(self.after, name, part, labels)
                - self._sum(self.before, name, part, labels))

    def mean(self, name: str) -> float:
        count = self.delta(name, "count")
        return self.delta(name, "sum") / count if count else 0.0

    def gauge(self, name: str) -> float:
        return self._sum(self.after, name, "value", {})


def span_totals(spans: list, start: float, end: float):
    """Per span name: (calls, self seconds, tag list) within the round.

    Self time is a span's duration minus its children's on the same
    thread; a span nested in one of the same name is not a new call."""
    by_id = {span[0]: span for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for span_id, parent, name, _tid, t0, t1, _tag in spans:
        if parent in by_id:
            child_time[parent] += t1 - t0
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    tags: Dict[str, list] = defaultdict(list)
    for span_id, parent, name, _tid, t0, t1, tag in spans:
        if not start <= t0 <= end:
            continue
        self_s[name] += (t1 - t0) - child_time[span_id]
        outer = by_id.get(parent)
        if outer is None or outer[2] != name:
            calls[name] += 1
            if tag is not None:
                tags[name].append(tag)
    return calls, self_s, tags


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(rounds: List[Round]) -> dict:
    """Counters and self times of the last traced round; the tracing
    overhead compares best-of replays with and without tracing."""
    plain = [r for r in rounds if r.spans is None]
    traced_rounds = [r for r in rounds if r.spans is not None]
    traced = traced_rounds[-1]
    calls, self_s, tags = span_totals(traced.spans, traced.start, traced.end)
    done = max(1, sum(1 for o in traced.outcomes if o.error is None))

    def ms(*names: str) -> float:
        return sum(self_s[name] for name in names) * 1e3 / done

    c = Counters(traced.before, traced.after)
    prefill_tokens = sum(tags["models.prefill"]) + sum(
        tags["models.prefill_stacked"])
    hit_tokens = c.delta("engine_prefix_cache_hit_tokens_total")
    traced_e2e, plain_e2e = end_to_end(traced_rounds), end_to_end(plain)
    client = generator_report([traced])
    return {
        "webapp.dispatch_self_ms": ms("webapp.dispatch"),
        "webapp.stream_self_ms": ms("webapp.stream"),
        "webapp.requests": calls["webapp.dispatch"],
        "webapp.non_2xx": sum(1 for status in tags["webapp.dispatch"]
                              if status is None or status >= 300),
        "tokenizers.decode_calls": calls["tokenizers.decode"],
        "tokenizers.decode_ms": ms("tokenizers.decode"),
        "core.prepare_prompt_ms": ms("core.prepare_prompt"),
        "core.finish_recipe_ms": ms("core.finish_recipe"),
        "retrieval.search_calls": calls["retrieval.search"],
        "retrieval.search_ms": ms("retrieval.search"),
        "retrieval.novelty_calls": calls["retrieval.novelty"],
        "retrieval.novelty_ms": ms("retrieval.novelty"),
        "cluster.submit_self_ms": ms("cluster.submit"),
        "cluster.placement_affinity": c.delta("cluster_placement",
                                              reason="affinity"),
        "cluster.placement_cache": c.delta("cluster_placement",
                                           reason="cache"),
        "cluster.placement_spill": c.delta("cluster_placement",
                                           reason="spill"),
        "cluster.placement_fallback": c.delta("cluster_placement",
                                              reason="fallback"),
        "cluster.borrow_tokens": c.delta("cluster_kv_borrow_tokens_total"),
        "cluster.fleet_hit_token_rate": c.gauge(
            "cluster_cache_hit_token_rate"),
        "resilience.supervisor_self_ms": ms("resilience.submit",
                                            "resilience.generate_ex"),
        "resilience.shed": (c.delta("cluster_admission_shed_total")
                            + c.delta("admission_shed_total")),
        "resilience.restarts": c.delta("engine_restarts_total"),
        "serving.queue_wait_ms": c.mean("engine_queue_wait_seconds") * 1e3,
        "serving.engine_ttft_ms": c.mean("engine_ttft_seconds") * 1e3,
        "serving.steps": c.delta("engine_steps_total"),
        "serving.forwards_per_step": ratio(
            c.delta("engine_decode_forwards_total"),
            c.delta("engine_steps_total")),
        "serving.batch_occupancy": c.mean("engine_batch_occupancy"),
        "serving.prefix_hit_token_rate": ratio(
            hit_tokens, hit_tokens + prefill_tokens),
        "serving.prefill_computed_tokens": prefill_tokens,
        "serving.cache_evictions": c.delta(
            "engine_prefix_cache_evictions_total"),
        "models.next_logits_calls": calls["models.next_logits"],
        "models.next_logits_ms": ms("models.next_logits"),
        "models.prefill_calls": (calls["models.prefill"]
                                 + calls["models.prefill_stacked"]),
        "models.prefill_ms": ms("models.prefill", "models.prefill_stacked"),
        "models.verify_chunk_calls": calls["models.verify_chunk"],
        "models.verify_chunk_ms": ms("models.verify_chunk"),
        "spec.acceptance_rate": ratio(c.delta("spec_accepted_tokens_total"),
                                      c.delta("spec_draft_tokens_total")),
        "spec.tokens_per_verify": ratio(
            c.delta("spec_emitted_tokens_total"),
            c.delta("spec_verify_forwards_total")),
        "spec.propose_ms": ms("spec.propose"),
        "decoding.mask_ms": ms("decoding.mask"),
        "decoding.mcts_self_ms": ms("decoding.mcts"),
        "decoding.reward_ms": ms("decoding.reward"),
        "decoding.rollouts": c.delta("decoding_rollouts_total"),
        "client.dispatch_late_p99_ms": client["dispatch_late_p99_ms"],
        "client.conn_wait_mean_ms": client["conn_wait_mean_ms"],
        "trace.overhead_cpu_pct": 100.0 * (ratio(
            traced_e2e["server_cpu_ms_per_req"],
            plain_e2e["server_cpu_ms_per_req"]) - 1.0),
        "trace.overhead_latency_p50_pct": 100.0 * (ratio(
            traced_e2e["latency_p50_ms"], plain_e2e["latency_p50_ms"]) - 1.0),
    }


def write_record(args, env: dict, summary: dict, client: dict,
                 rounds: List[Round], metrics: dict) -> None:
    """Keep the full result, per-request rows included, for later study."""
    def ms(start, end):
        return None if start is None or end is None else (end - start) * 1e3

    rows = [{"index": replays[0].request.index,
             "kind": replays[0].request.kind,
             "budget": replays[0].request.payload["max_new_tokens"],
             "tokens": [len(o.tokens) for o in replays],
             "errors": [o.error for o in replays],
             "conn_wait_ms": [o.conn_wait * 1e3 for o in replays],
             "ttft_ms": [ms(o.due, o.first_token) for o in replays],
             "latency_ms": [ms(o.due, o.finished) for o in replays]}
            for replays in zip(*(r.outcomes for r in rounds))]
    out = BUILD / "results" / (f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": env, "summary": summary,
                               "generator": client, "metrics": metrics,
                               "requests": rows}, indent=1))


def manifest_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in manifest[section]}


# ---------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so a round's server is always stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, Generator

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    BUILD.mkdir(parents=True, exist_ok=True)
    (BUILD / "server.log").write_bytes(b"")
    checkpoint = ensure_checkpoint()
    requests = Generator(WORKLOADS[args.workload],
                         args.seed).schedule(args.seconds / ROUNDS)

    from oracle import Oracle

    oracle = Oracle(str(checkpoint))
    # A traced run alternates untraced and traced rounds.
    plan = [False, True, False, True] if args.trace else [False] * ROUNDS
    rounds = [run_round(checkpoint, requests, traced) for traced in plan]
    book = mcts_digest_book()
    digests = json.loads(book.read_text()) if book.is_file() else {}
    failures = [check_outputs(r, oracle, digests) for r in rounds]
    staging = book.with_suffix(".tmp")
    staging.write_text(json.dumps(digests, sort_keys=True))
    staging.replace(book)
    env = launch_environment(args.seed, rounds[-1].server_argv)
    measured = [r for r in rounds if (r.spans is not None) == args.trace]
    summary = end_to_end(measured)
    client = generator_report(measured)
    attempted = sum(len(r.outcomes) for r in rounds)
    failed = sum(1 for r in rounds for o in r.outcomes if o.error is not None)
    correct = all(set(counts) <= {"ok"} for counts in failures)

    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"requests={attempted} succeeded={attempted - failed} "
          f"failed={failed} outcomes={failures} "
          f"error_ratio={failed / attempted:.4f}")
    print(f"tail=p{summary['_tail_percentile']:g} over "
          f"{summary['_tail_samples']} samples; generator: "
          + json.dumps({k: round(v, 3) for k, v in client.items()}))
    for number, round_ in enumerate(rounds):
        for outcome in round_.outcomes:
            if outcome.error is not None:
                print(f"  round {number} request {outcome.request.index} "
                      f"({outcome.request.kind}): {outcome.error}")
    print("env: " + json.dumps(env, sort_keys=True))
    if client["dispatch_late_p99_ms"] > LATENESS_BOUND_MS:
        print(f"FLAGGED: dispatcher lateness p99 "
              f"{client['dispatch_late_p99_ms']:.1f} ms exceeds "
              f"{LATENESS_BOUND_MS} ms; the generator, not the server, "
              f"set the timings, so no result is reported", file=sys.stderr)
        return 3
    if args.trace:
        values = per_layer(rounds)
        units = manifest_units("per_layer")
    else:
        values = summary
        units = manifest_units("end_to_end")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    write_record(args, env, summary, client, rounds, metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
