"""Chaos: supervisor restart with int8 kernels + retrieval together.

The recovery path each subsystem tests alone composes: when the
supervised engine crashes under a backend running ``--kernels int8``
AND ``--retrieval`` at once, the replacement engine must re-attach the
frozen quantized weights (the fleet-shared model object), the retrieval
surface must keep serving, and post-recovery generation must be
bit-identical to pre-crash output — plus the warm spill/journal paths
must still engage on the eventual clean stop.
"""

import json
import time

import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.obs import MetricsRegistry
from repro.resilience import (FaultInjector, FaultSpec, ResilienceConfig,
                              inject_faults)
from repro.training import TrainingConfig
from repro.webapp import Request, create_backend

pytestmark = [pytest.mark.chaos, pytest.mark.durability]

PAYLOAD = {"ingredients": ["garlic", "chicken"], "strategy": "greedy",
           "max_new_tokens": 8, "seed": 0}


@pytest.fixture(scope="module")
def pipeline():
    # Own pipeline: create_backend(kernels=...) freezes this model's
    # weights, which must not leak into other test modules' fixtures.
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=20, batch_size=4,
                                eval_every=10**9))
    return Ratatouille.quickstart(model_name="distilgpt2", num_recipes=30,
                                  seed=0, config=config)


def _post(app, path, payload):
    return app.dispatch(Request(method="POST", path=path, query={},
                                headers={},
                                body=json.dumps(payload).encode("utf-8")))


def _body(response):
    return json.loads(response.body.decode("utf-8"))


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_supervised_restart_with_kernels_and_retrieval(pipeline, tmp_path):
    registry = MetricsRegistry()
    index = pipeline.build_retrieval_index(registry=registry)
    app = create_backend(
        pipeline, registry=registry,
        resilience=ResilienceConfig(max_restarts=3,
                                    restart_backoff_seconds=0.01),
        kernels="int8", retrieval_index=index,
        journal_dir=tmp_path / "journal", spill_dir=tmp_path / "spill")
    try:
        assert pipeline.model.kernels is not None  # int8 path attached

        baseline = _body(_post(app, "/api/generate", PAYLOAD))
        search = _body(_post(app, "/api/search",
                             {"query": "garlic chicken", "k": 3}))
        assert len(search["hits"]) == 3

        supervisor = app.router._replicas["r0"].supervisor
        crashed_engine = supervisor.engine
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0})})
        with inject_faults(injector):
            response = _post(app, "/api/generate", PAYLOAD)
            assert response.status >= 500  # the crash resolved, loudly
            assert _wait_for(lambda: supervisor.restarts == 1)
        assert _wait_for(lambda: supervisor.state == "serving")
        assert supervisor.engine is not crashed_engine

        # The replacement engine serves the same frozen int8 weights:
        # recovered output is bit-identical to pre-crash output.
        recovered = _body(_post(app, "/api/generate", PAYLOAD))
        for field in ("title", "ingredients", "instructions"):
            assert recovered[field] == baseline[field]
        assert pipeline.model.kernels is not None

        # The retrieval index survived the engine bounce.
        again = _body(_post(app, "/api/search",
                            {"query": "garlic chicken", "k": 3}))
        assert ([hit["doc_id"] for hit in again["hits"]]
                == [hit["doc_id"] for hit in search["hits"]])

        # Async + journal still function after the restart.
        job = _body(_post(app, "/api/generate_async", PAYLOAD))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = _body(app.dispatch(Request(
                method="GET", path="/api/job",
                query={"id": [job["job_id"]]}, headers={}, body=b"")))
            if status.get("status") in ("done", "failed"):
                break
            time.sleep(0.02)
        assert status["status"] == "done"
    finally:
        summary = app.shutdown_gracefully(deadline_seconds=30.0)
    # The clean stop of the *replacement* engine still spilled warm
    # state and compacted the journal.
    assert summary["spilled"] is True
    assert summary["journal"]["rotations"] == 1


def test_restart_preserves_quantized_weight_sharing(pipeline, tmp_path):
    registry = MetricsRegistry()
    app = create_backend(
        pipeline, registry=registry,
        resilience=ResilienceConfig(max_restarts=2,
                                    restart_backoff_seconds=0.01),
        kernels="int8", journal_dir=tmp_path / "journal")
    try:
        store_before = pipeline.model.kernels.store
        supervisor = app.router._replicas["r0"].supervisor
        injector = FaultInjector(
            {"prefix_cache.get": FaultSpec(schedule={0})})
        with inject_faults(injector):
            _post(app, "/api/generate", PAYLOAD)
            assert _wait_for(lambda: supervisor.restarts == 1)
        assert _wait_for(lambda: supervisor.state == "serving")
        # The replacement did not re-quantize: one shared weight store.
        assert pipeline.model.kernels.store is store_before
    finally:
        app.shutdown_gracefully()
