"""Resilience primitives: fault injection and the admission gate.

The deterministic pieces of the failure envelope — the chaos suite
(``test_chaos.py``) composes them against the full serving stack.
"""

import pytest

from repro.cluster import ClusterAdmissionController
from repro.obs import MetricsRegistry
from repro.resilience import (FAULT_POINTS, FaultInjector, FaultSpec,
                              InjectedFault, OverloadShedError,
                              ResilienceConfig, fault_check,
                              get_fault_injector, inject_faults,
                              set_fault_injector)


class TestFaultInjector:
    def test_schedule_fires_at_exact_indices(self):
        injector = FaultInjector(
            {"model.forward": FaultSpec(schedule={1, 3})})
        outcomes = []
        for _ in range(5):
            try:
                injector.check("model.forward")
                outcomes.append(None)
            except InjectedFault as exc:
                outcomes.append(exc.index)
        assert outcomes == [None, 1, None, 3, None]

    def test_rate_plan_is_deterministic_per_seed(self):
        def run(seed):
            injector = FaultInjector(
                {"jobs.worker": FaultSpec(rate=0.5)}, seed=seed)
            fired = []
            for i in range(40):
                try:
                    injector.check("jobs.worker")
                except InjectedFault:
                    fired.append(i)
            return fired

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert run(7)  # a 0.5 rate over 40 calls fires at least once

    def test_points_draw_independent_streams(self):
        # Adding calls at one point must not perturb another's schedule.
        solo = FaultInjector({"model.forward": FaultSpec(rate=0.3)}, seed=1)
        mixed = FaultInjector({"model.forward": FaultSpec(rate=0.3),
                               "jobs.worker": FaultSpec(rate=0.9)}, seed=1)

        def pattern(injector, interleave):
            fired = []
            for i in range(30):
                if interleave:
                    try:
                        injector.check("jobs.worker")
                    except InjectedFault:
                        pass
                try:
                    injector.check("model.forward")
                except InjectedFault:
                    fired.append(i)
            return fired

        assert pattern(solo, False) == pattern(mixed, True)

    def test_max_faults_caps_raises(self):
        injector = FaultInjector(
            {"model.forward": FaultSpec(rate=1.0, max_faults=2)})
        raised = 0
        for _ in range(10):
            try:
                injector.check("model.forward")
            except InjectedFault:
                raised += 1
        assert raised == 2
        assert injector.snapshot()["model.forward"]["faults"] == 2

    def test_delay_uses_injected_sleeper(self):
        slept = []
        injector = FaultInjector(
            {"framework.write": FaultSpec(delay_seconds=0.25)},
            sleep=slept.append)
        injector.check("framework.write")  # delay without fault
        assert slept == [0.25]
        assert injector.snapshot()["framework.write"]["delayed"] == 1

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultInjector({"model.fwrward": FaultSpec(rate=1.0)})

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(delay_seconds=-1)
        with pytest.raises(ValueError):
            FaultSpec(max_faults=-1)

    def test_fault_check_is_noop_without_injector(self):
        assert get_fault_injector() is None
        for point in FAULT_POINTS:
            fault_check(point)  # must not raise

    def test_inject_faults_scopes_and_restores(self):
        outer = FaultInjector({})
        previous = set_fault_injector(outer)
        try:
            inner = FaultInjector(
                {"model.forward": FaultSpec(schedule={0})})
            with inject_faults(inner):
                assert get_fault_injector() is inner
                with pytest.raises(InjectedFault):
                    fault_check("model.forward")
            assert get_fault_injector() is outer
        finally:
            set_fault_injector(previous)


class TestAdmissionController:
    """The one admission gate on a fleet of one replica.

    :class:`ClusterAdmissionController` is the only gate; with a single
    replica its rules are the single-queue ones: shed past the
    watermark, an idle replica admits one oversized request, and
    ``Retry-After`` is the backlog over the throughput hint.
    """

    @pytest.fixture()
    def router(self):
        from repro.cluster import ClusterConfig, Router
        from repro.models.lstm import LSTMConfig, LSTMLanguageModel
        from repro.serving import InferenceEngine

        registry = MetricsRegistry()
        model = LSTMLanguageModel(LSTMConfig(
            vocab_size=16, d_embed=4, d_hidden=8, num_layers=1,
            dropout=0.0))
        router = Router(
            lambda name: InferenceEngine(model, registry=registry,
                                         name=name),
            ClusterConfig(replicas=1, watermark_tokens=100),
            registry=registry)
        yield router
        router.stop()

    def test_admits_below_watermark_and_sheds_above(self):
        gate = ClusterAdmissionController(100, registry=MetricsRegistry())
        assert gate.eligible({"r0": 60}, 40) == ["r0"]  # at the watermark
        with pytest.raises(OverloadShedError):
            gate.eligible({"r0": 100}, 1)

    def test_idle_gate_admits_an_oversized_request(self):
        # A request larger than the watermark must not starve forever.
        gate = ClusterAdmissionController(50, registry=MetricsRegistry())
        assert gate.eligible({"r0": 0}, 500) == ["r0"]
        with pytest.raises(OverloadShedError):
            gate.eligible({"r0": 500}, 1)

    def test_release_reopens_the_gate(self, router):
        replica = router._replicas["r0"]
        key = replica.track(None, 100)
        with pytest.raises(OverloadShedError):
            router.check_admission(10)
        replica.untrack(key)  # the request resolved
        router.check_admission(10)

    def test_retry_after_scales_with_backlog(self):
        gate = ClusterAdmissionController(100, tokens_per_second_hint=100.0,
                                          registry=MetricsRegistry())
        with pytest.raises(OverloadShedError) as small:
            gate.eligible({"r0": 100}, 10)
        with pytest.raises(OverloadShedError) as big:
            gate.eligible({"r0": 100}, 1000)
        # ceil(max(queued + cost - watermark, queued - watermark / 2)
        #      / tokens_per_second_hint), at least 1.
        assert small.value.retry_after == 1
        assert big.value.retry_after == 10

    def test_would_shed_is_read_only(self, router):
        gate = router.admission
        gate.eligible({"r0": 0}, 10, record_admit=False)
        assert gate.stats()["admitted_total"] == 0  # a probe admits nothing
        replica = router._replicas["r0"]
        key = replica.track(None, 90)
        with pytest.raises(OverloadShedError):
            router.check_admission(20)
        router.check_admission(10)
        assert replica.queued_tokens() == 90  # probing changed nothing
        replica.untrack(key)

    def test_metrics_and_stats(self):
        registry = MetricsRegistry()
        gate = ClusterAdmissionController(100, registry=registry)
        gate.eligible({"r0": 80}, 20)
        with pytest.raises(OverloadShedError):
            gate.eligible({"r0": 80}, 80)
        stats = gate.stats()
        assert stats == {"watermark_tokens": 100, "admitted_total": 1,
                         "shed_total": 1}
        assert registry.counter(
            "cluster_admission_shed_total").labels().value == 1

    def test_release_never_goes_negative(self, router):
        replica = router._replicas["r0"]
        key = replica.track(None, 50)
        replica.untrack(key)
        replica.untrack(key)  # a double release is a no-op
        assert replica.queued_tokens() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterAdmissionController(0, registry=MetricsRegistry())
        with pytest.raises(ValueError):
            ClusterAdmissionController(10, tokens_per_second_hint=0,
                                       registry=MetricsRegistry())
        gate = ClusterAdmissionController(10, registry=MetricsRegistry())
        with pytest.raises(ValueError):
            gate.eligible({"r0": 0}, -1)


class TestResilienceConfig:
    def test_defaults_are_inert(self):
        config = ResilienceConfig()
        assert config.default_deadline_ms is None
        assert config.shed_watermark_tokens is None
        assert not config.degraded_fallback

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(default_deadline_ms=0)
        with pytest.raises(ValueError):
            ResilienceConfig(shed_watermark_tokens=0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_restarts=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(restart_backoff_seconds=-0.1)
