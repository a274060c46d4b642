"""Gate benchmark: admission control bounds admitted p99 under overload.

Closed-loop clients hammer a fleet of one — a
:class:`~repro.cluster.Router` over one tiny LSTM-backed supervised
engine, the topology ``repro serve`` runs by default — whose admission
gate (:class:`~repro.cluster.ClusterAdmissionController`, the only
gate) is sized at ~1.5x the engine's concurrent batch work:

* **uncontended** — as many clients as batch slots; the gate never
  sheds, measuring the baseline p99 the engine can deliver;
* **overload** — 4x the clients at the same gate.  Excess work sheds
  immediately (the client backs off and retries); the work that *is*
  admitted queues at most ~half a watermark deep.

The gate asserts the load-shedding contract: at 4x offered load the
overloaded run actually shed traffic, and the p99 latency of admitted
requests stayed within the configured factor (default 2x) of the
uncontended p99.  Without the gate, every queued request waits behind
the whole backlog and p99 grows with offered load without bound.

Usage::

    PYTHONPATH=src python benchmarks/run_overload_shedding.py
"""

from __future__ import annotations

import argparse
import gc
import sys
import threading
import time

import numpy as np

from repro.cluster import ClusterConfig, Router
from repro.models import GenerationConfig
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import OverloadShedError
from repro.serving import EngineConfig, InferenceEngine

VOCAB = 32
BATCH_SLOTS = 4
#: Per-request ``max_new_tokens`` (the token-denominated admission
#: cost), staggered so batch lanes retire one at a time instead of in
#: convoys — the same mixed-budget shape as the throughput benchmark.
COSTS = (12, 16, 20)
MEAN_COST = sum(COSTS) // len(COSTS)
#: Client back-off after a shed.  Generous relative to a decode (and
#: jittered per client) so the rejected clients model *remote* callers
#: honouring Retry-After — not local threads stealing the GIL from the
#: very engine whose latency is being measured.
SHED_BACKOFF_SECONDS = 0.04


def _model() -> LSTMLanguageModel:
    model = LSTMLanguageModel(LSTMConfig(
        vocab_size=VOCAB, d_embed=8, d_hidden=16, num_layers=1, dropout=0.0))
    model.eval()
    return model


def _percentile(samples, q) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]


def _run_phase(router, clients, requests_per_client):
    """Closed-loop clients; returns (admitted latencies, shed count)."""
    latencies = []
    shed = [0]
    lock = threading.Lock()

    def client(index):
        rng = np.random.default_rng(index)
        prompt = [int(t) for t in rng.integers(0, VOCAB, size=6)]
        completed = 0
        while completed < requests_per_client:
            cost = COSTS[(index + completed) % len(COSTS)]
            config = GenerationConfig(max_new_tokens=cost, strategy="sample",
                                      temperature=0.9, top_k=8,
                                      seed=index * 1000 + completed)
            start = time.perf_counter()
            try:
                # The router's dispatch is the gate: it sheds up front
                # or tracks the cost until the request resolves.
                router.generate(prompt, config)
            except OverloadShedError:
                with lock:
                    shed[0] += 1
                time.sleep(SHED_BACKOFF_SECONDS * (1 + 0.5 * rng.random()))
                continue
            elapsed = time.perf_counter() - start
            completed += 1
            with lock:
                latencies.append(elapsed)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, shed[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=12,
                        help="admitted completions per client per round")
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved uncontended/overload round pairs")
    parser.add_argument("--overload", type=int, default=4,
                        help="offered-load multiplier for the hot phase")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="max allowed p99 inflation for admitted work")
    args = parser.parse_args(argv)

    watermark = int(1.5 * BATCH_SLOTS * MEAN_COST)  # ~1.5x the batch's work
    model = _model()

    def factory(name):
        return InferenceEngine(model, EngineConfig(max_batch_size=BATCH_SLOTS),
                               registry=NullRegistry(), tracer=NullTracer(),
                               name=name)

    router = Router(factory,
                    ClusterConfig(replicas=1, watermark_tokens=watermark),
                    registry=MetricsRegistry(), tracer=NullTracer())

    uncontended_clients = BATCH_SLOTS
    overload_clients = BATCH_SLOTS * args.overload
    try:
        # Warm the engine thread, allocator and prefix cache off-clock.
        _run_phase(router, uncontended_clients, 2)
        gc.collect()
        gc.disable()
        # Interleave rounds and pool samples across them: a per-round
        # p99 over ~50 samples is just the round's max, so the ratio of
        # two of them is noise.  The pooled tails are stable.
        base_lat, hot_lat = [], []
        base_shed = hot_shed = 0
        try:
            for _ in range(args.rounds):
                latencies, shed = _run_phase(
                    router, uncontended_clients, args.requests)
                base_lat.extend(latencies)
                base_shed += shed
                latencies, shed = _run_phase(
                    router, overload_clients, args.requests)
                hot_lat.extend(latencies)
                hot_shed += shed
        finally:
            gc.enable()
    finally:
        router.stop()

    base_p99 = _percentile(base_lat, 0.99)
    hot_p99 = _percentile(hot_lat, 0.99)
    inflation = hot_p99 / base_p99

    print(f"gate: watermark {watermark} tokens "
          f"({BATCH_SLOTS} slots x {MEAN_COST} mean tokens x 1.5), "
          f"costs {COSTS} tokens/request")
    print(f"uncontended: {uncontended_clients} clients, "
          f"{len(base_lat)} admitted over {args.rounds} rounds, "
          f"{base_shed} shed, "
          f"p50 {_percentile(base_lat, 0.5) * 1000:6.1f} ms, "
          f"p99 {base_p99 * 1000:6.1f} ms")
    print(f"overload:    {overload_clients} clients ({args.overload}x), "
          f"{len(hot_lat)} admitted, {hot_shed} shed, "
          f"p50 {_percentile(hot_lat, 0.5) * 1000:6.1f} ms, "
          f"p99 {hot_p99 * 1000:6.1f} ms")
    print(f"admitted p99 inflation: {inflation:.2f}x "
          f"(gate {args.threshold:.1f}x)")

    if hot_shed == 0:
        print("FAIL: overload phase never shed — the gate is not engaging",
              file=sys.stderr)
        return 1
    if inflation > args.threshold:
        print("FAIL: admitted p99 inflated beyond the gate under overload",
              file=sys.stderr)
        return 1
    print("OK: shedding keeps admitted latency bounded at "
          f"{args.overload}x offered load")
    return 0


if __name__ == "__main__":
    sys.exit(main())
