"""MCTS wave search: concurrent rollouts, error routing, shared prefill.

The contracts under test (``docs/DECODING.md`` §3, ``docs/SERVING.md``):

* a decode failure mid-wave (shed, no replica, validation) propagates
  under its own name, is never counted as a degraded search, and
  cancels the wave's unfinished rollouts — a real engine ends with no
  active sequences;
* a seeded search gives the same tokens and ``search`` block through a
  real engine (sharing its batch with unrelated work) as through the
  sequential default, run after run, and a one-wave search costs about
  one request's worth of engine steps, not one per rollout;
* identical prompts admitted in one wave are prefilled once: the
  copies are full prefix-cache hits and decode bit-identically to the
  sequential path.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.decoding import (CompletedDecode, MCTSDecoder, MIN_BUDGET,
                            run_constrained_generation)
from repro.decoding.reward import RewardBreakdown
from repro.models import GenerationConfig, distilgpt2, generate
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.preprocess import preprocess
from repro.recipedb import default_catalog, generate_corpus
from repro.resilience import (FaultInjector, FaultSpec, OverloadShedError,
                              ResilienceConfig, inject_faults)
from repro.serving import EngineConfig, InferenceEngine
from repro.training import TrainingConfig
from repro.webapp import Request, create_backend

VOCAB = 32


def _breakdown(total):
    return RewardBreakdown(total=total, components={"format": total})


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class _Recorded(CompletedDecode):
    """A finished stub rollout that remembers being cancelled."""

    def __init__(self, tokens, log):
        super().__init__(tokens)
        self.cancelled = False
        log.append(self)

    def cancel(self):
        self.cancelled = True


class TestDecodeErrorsPropagate:
    CONFIG = GenerationConfig(max_new_tokens=MIN_BUDGET + 20,
                              strategy="mcts", mcts_rollouts=6, seed=3)

    def _decoder(self, submit, registry, reward=None):
        return MCTSDecoder(
            submit=submit, build_processors=lambda preamble, budget: [],
            reward=reward or (lambda ids: _breakdown(0.5)),
            registry=registry)

    def test_shed_on_rollout_two_propagates_undegraded(self):
        registry = MetricsRegistry()
        handles, calls = [], []

        def submit(prompt, config, processors, deadline_ms):
            calls.append(config.seed)
            if len(calls) == 3:
                raise OverloadShedError("fleet saturated", retry_after=1)
            return _Recorded([4] * 12, handles)

        with pytest.raises(OverloadShedError):
            self._decoder(submit, registry).search([1, 2], self.CONFIG)
        degraded = registry.counter("decoding_degraded_total").labels()
        assert degraded.value == 0
        assert len(calls) == 3  # never re-submitted as a greedy fallback
        assert [h.cancelled for h in handles] == [True, True]

    def test_result_error_propagates_and_cancels_the_rest(self):
        registry = MetricsRegistry()
        handles = []

        class _Failing(_Recorded):
            def result(self):
                raise OverloadShedError("shed at collection", retry_after=1)

        def submit(prompt, config, processors, deadline_ms):
            kind = _Failing if len(handles) == 1 else _Recorded
            return kind([4] * 12, handles)

        with pytest.raises(OverloadShedError):
            self._decoder(submit, registry).search([1, 2], self.CONFIG)
        assert registry.counter("decoding_degraded_total").labels().value == 0
        assert all(h.cancelled for h in handles)

    def test_reward_failure_cancels_wave_then_degrades(self):
        registry = MetricsRegistry()
        handles = []

        def submit(prompt, config, processors, deadline_ms):
            return _Recorded([5] * 12, handles)

        def reward(_ids):
            raise RuntimeError("reward backend down")

        result = self._decoder(submit, registry, reward).search(
            [1, 2], self.CONFIG)
        assert result.search_degraded is True
        assert registry.counter("decoding_degraded_total").labels().value == 1
        # The first wave's three rollouts were cancelled; the fourth
        # handle is the greedy fallback itself.
        assert [h.cancelled for h in handles] == [True, True, True, False]

    def test_real_engine_failure_mid_wave_frees_every_slot(self):
        registry = MetricsRegistry()
        model = distilgpt2(vocab_size=VOCAB, context_length=128)
        with InferenceEngine(model, registry=registry) as engine:
            handles = []

            def submit(prompt, config, processors, deadline_ms):
                # The third rollout carries an invalid deadline: the
                # engine's own validation rejects it mid-wave.
                deadline = 0.0 if len(handles) == 2 else deadline_ms
                handle = engine.submit(prompt, config, processors,
                                       deadline_ms=deadline)
                handles.append(handle)
                return handle

            config = GenerationConfig(max_new_tokens=60, strategy="mcts",
                                      mcts_rollouts=6, seed=1)
            with pytest.raises(ValueError, match="deadline_ms"):
                self._decoder(submit, registry).search([1, 2, 3], config)
            assert len(handles) == 2
            assert all(h.cancelled for h in handles)
            assert _wait_for(lambda: all(h.done for h in handles))
            active = registry.gauge("engine_active_sequences").labels()
            assert _wait_for(lambda: active.value == 0)
        assert registry.counter("decoding_degraded_total").labels().value == 0


@pytest.fixture(scope="module")
def pipeline():
    texts, _ = preprocess(generate_corpus(25, seed=7))
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=3, batch_size=4, warmup_steps=1,
                                eval_every=10**9))
    return Ratatouille.from_texts(texts, config=config)


class TestCrossPathDeterminism:
    NAMES = ["onion", "tomato"]

    @staticmethod
    def _config(rollouts):
        return GenerationConfig(max_new_tokens=24, strategy="mcts", seed=5,
                                mcts_rollouts=rollouts)

    def _through_engine(self, pipeline, engine, rollouts):
        def submit(prompt, config, processors, deadline_ms):
            return engine.submit(prompt, config, processors,
                                 deadline_ms=deadline_ms)
        _, tokens, _, info = run_constrained_generation(
            pipeline, self.NAMES, self._config(rollouts),
            catalog=default_catalog(), submit=submit)
        return tokens, info["search"]

    def test_engine_waves_equal_the_sequential_default(self, pipeline):
        catalog = default_catalog()
        _, expected, _, info = run_constrained_generation(
            pipeline, self.NAMES, self._config(8), catalog=catalog)
        assert info["search"]["rollouts"] == 8
        runs = []
        with InferenceEngine(pipeline.model,
                             registry=MetricsRegistry()) as engine:
            for _ in range(2):
                # Unrelated work shares the batch with every wave.
                other = engine.submit(
                    pipeline.tokenizer.encode("<RECIPE_START> rice"),
                    GenerationConfig(max_new_tokens=60, strategy="sample",
                                     seed=9))
                runs.append(self._through_engine(pipeline, engine, 8))
                other.result(timeout=60)
        assert runs[0] == runs[1] == (expected, info["search"])

    def test_one_wave_costs_one_request_of_steps(self, pipeline):
        registry = MetricsRegistry()
        gate = _GatedPrefill(pipeline.model)
        submitted = []
        try:
            with InferenceEngine(pipeline.model,
                                 registry=registry) as engine:
                # Hold the engine in a one-token blocker's prefill so
                # the whole wave queues and one admission takes it.
                blocker = engine.submit(
                    pipeline.tokenizer.encode("<RECIPE_START> rice"),
                    GenerationConfig(max_new_tokens=1))
                assert gate.entered.wait(timeout=10)

                def submit(prompt, config, processors, deadline_ms):
                    submitted.append(engine.submit(prompt, config,
                                                   processors))
                    if len(submitted) == 3:
                        gate.gate.set()
                    return submitted[-1]
                run_constrained_generation(
                    pipeline, self.NAMES, self._config(3),
                    catalog=default_catalog(), submit=submit)
                blocker.result(timeout=60)
        finally:
            gate.restore()
        assert len(submitted) == 3

        def count(name):
            return registry.counter(name).labels().value
        steps = count("engine_steps_total")
        assert steps <= self._config(3).max_new_tokens + 2
        # Equal-length siblings admitted together decode as one
        # stacked forward per step.
        assert count("engine_decode_forwards_total") <= steps + 1


class TestFleetWaves:
    """The backend's wave path keeps the router's degraded fallback."""

    @staticmethod
    def _post(app, payload):
        return app.dispatch(Request(
            method="POST", path="/api/generate", query={}, headers={},
            body=json.dumps(payload).encode("utf-8")))

    def test_crash_past_budget_degrades_every_rollout(self, pipeline):
        app = create_backend(
            pipeline, registry=MetricsRegistry(),
            resilience=ResilienceConfig(max_restarts=0,
                                        degraded_fallback=True))
        payload = {"ingredients": ["onion", "tomato"], "strategy": "mcts",
                   "mcts_rollouts": 4, "max_new_tokens": 24, "seed": 5}
        try:
            healthy = json.loads(self._post(app, payload).body)
            injector = FaultInjector(
                {"prefix_cache.get": FaultSpec(rate=1.0)})
            with inject_faults(injector):
                response = self._post(app, payload)
        finally:
            app.engine.stop()
        assert response.status == 200
        body = json.loads(response.body)
        assert body["degraded"] is True
        assert "search_degraded" not in body  # a decode fault, not reward
        # The sequential fallback decodes bit-identically, so the
        # search is the one the healthy fleet ran.
        assert body["search"] == healthy["search"]
        assert "degraded" not in healthy


def _prompt(seed, length):
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(0, VOCAB, size=length)]


class _GatedPrefill:
    """Hold the engine's first prefill so later submits queue up.

    A blocker request enters prefill and waits on the gate; requests
    submitted meanwhile are all popped by the engine's next admission,
    so they prefill as one wave.
    """

    def __init__(self, model):
        self.gate = threading.Event()
        self.entered = threading.Event()
        self._model = model
        prefill = model.prefill

        def gated(*args, **kwargs):
            self.entered.set()
            self.gate.wait(timeout=10)
            return prefill(*args, **kwargs)
        model.prefill = gated

    def restore(self):
        """Drop the instance override (for a shared model)."""
        self.gate.set()
        del self._model.prefill


class TestAdmissionSharing:
    PROMPT_LEN = 40

    def _wave(self, prompts, configs, engine_config=None, stacked=None):
        model = distilgpt2(vocab_size=VOCAB, context_length=128)
        expected = [generate(model, p, c, registry=NullRegistry(),
                             tracer=NullTracer())
                    for p, c in zip(prompts, configs)]
        gate = _GatedPrefill(model)
        if stacked is not None:
            prefill_stacked = model.prefill_stacked

            def counted(ids, state):
                stacked.append(len(ids))
                return prefill_stacked(ids, state)
            model.prefill_stacked = counted
        registry = MetricsRegistry()
        with InferenceEngine(model, engine_config,
                             registry=registry) as engine:
            blocker = engine.submit(_prompt(999, 5),
                                    GenerationConfig(max_new_tokens=4))
            assert gate.entered.wait(timeout=10)
            handles = [engine.submit(p, c) for p, c in zip(prompts, configs)]
            gate.gate.set()
            actual = [h.result(timeout=60) for h in handles]
            blocker.result(timeout=60)

        def count(name):
            return registry.counter(name).labels().value
        return expected, actual, {
            "hits": count("engine_prefix_cache_hits_total"),
            "misses": count("engine_prefix_cache_misses_total"),
            "hit_tokens": count("engine_prefix_cache_hit_tokens_total")}

    @pytest.mark.parametrize("copies", [2, 3, 5])
    def test_identical_prompts_prefill_once(self, copies):
        prompt = _prompt(7, self.PROMPT_LEN)
        configs = [GenerationConfig(max_new_tokens=10, strategy="sample",
                                    seed=seed) for seed in range(copies)]
        expected, actual, counts = self._wave([prompt] * copies, configs)
        assert actual == expected
        # The blocker's miss plus one for the wave; every copy hits.
        assert counts["misses"] == 2
        assert counts["hits"] == copies - 1
        assert counts["hit_tokens"] == (copies - 1) * self.PROMPT_LEN

    def test_without_cache_budget_copies_stack_with_their_leader(self):
        # Nothing can be stored for the copies to hit, so they share
        # the leader's stacked prefill, as without admission sharing.
        copies = 3
        prompt = _prompt(7, self.PROMPT_LEN)
        configs = [GenerationConfig(max_new_tokens=10, strategy="sample",
                                    seed=seed) for seed in range(copies)]
        stacked = []
        expected, actual, counts = self._wave(
            [prompt] * copies, configs,
            EngineConfig(prefix_cache_bytes=0), stacked)
        assert actual == expected
        assert counts["hits"] == 0
        assert stacked and all(rows == copies for rows in stacked)

    def test_distinct_prompts_are_unaffected(self):
        prompts = [_prompt(20 + i, self.PROMPT_LEN) for i in range(3)]
        configs = [GenerationConfig(max_new_tokens=10, seed=i)
                   for i in range(3)]
        expected, actual, counts = self._wave(prompts, configs)
        assert actual == expected
        assert counts["misses"] == 4
        assert counts["hits"] == 0
        assert counts["hit_tokens"] == 0
