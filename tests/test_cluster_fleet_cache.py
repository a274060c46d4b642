"""Fleet cache tier: shared index, cache-aware placement, KV borrowing.

Covers the :class:`~repro.cluster.FleetCacheIndex` trie in isolation,
the :class:`~repro.serving.PrefixCache` fleet hooks (listener,
``borrowed`` entries, pinning, ``peek``/``match_depth``), and the
router-level behaviour: placement prefers a published-prefix holder
when unsaturated, falls back correctly under saturation / drain /
death, borrows read-through when diverted, and stays bit-identical to
the single-engine reference throughout.  The Zipf-workload benchmark
gate lives in ``benchmarks/run_cluster_cache.py``
(``tests/test_cluster_cache_slow.py``).
"""

import pytest

from repro.cluster import ClusterConfig, FleetCacheIndex, Router
from repro.models import GenerationConfig, generate
from repro.models.lstm import LSTMConfig, LSTMLanguageModel
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.serving import EngineConfig, InferenceEngine
from repro.serving.prefix_cache import PrefixCache

pytestmark = pytest.mark.cluster

CONFIG = GenerationConfig(max_new_tokens=4, seed=0)


def _model():
    return LSTMLanguageModel(LSTMConfig(vocab_size=16, d_embed=4, d_hidden=8,
                                        num_layers=1, dropout=0.0))


def _router(model, registry, replicas=2, **overrides):
    defaults = dict(replicas=replicas, restart_backoff_seconds=0.01,
                    heartbeat_seconds=0.01)
    defaults.update(overrides)

    def factory(name):
        return InferenceEngine(model, EngineConfig(max_batch_size=2),
                               registry=registry, tracer=NullTracer(),
                               name=name)

    return Router(factory, ClusterConfig(**defaults), registry=registry)


@pytest.fixture()
def model():
    return _model()


@pytest.fixture()
def registry():
    return MetricsRegistry()


def _reference(model, prompt):
    return generate(model, prompt, CONFIG, registry=NullRegistry(),
                    tracer=NullTracer())


class TestFleetCacheIndex:
    def test_publish_and_longest_match(self):
        index = FleetCacheIndex(publish_tokens=8)
        cache = object()
        index.attach("r0", cache)
        assert index.publish("r0", cache, [1, 2, 3])
        assert index.longest_match([1, 2, 3, 4]) == (3, ("r0",))
        assert index.longest_match([1, 2]) == (0, ())
        assert index.longest_match([9]) == (0, ())
        assert index.holders([1, 2, 3]) == ("r0",)
        assert len(index) == 1

    def test_multiple_holders_sorted(self):
        index = FleetCacheIndex(publish_tokens=8)
        c0, c1 = object(), object()
        index.attach("r1", c1)
        index.attach("r0", c0)
        index.publish("r1", c1, [1, 2])
        index.publish("r0", c0, [1, 2])
        assert index.longest_match([1, 2]) == (2, ("r0", "r1"))

    def test_depth_cap_refuses_deep_keys(self):
        index = FleetCacheIndex(publish_tokens=2)
        cache = object()
        index.attach("r0", cache)
        assert not index.publish("r0", cache, [1, 2, 3])
        assert index.longest_match([1, 2, 3]) == (0, ())
        assert len(index) == 0

    def test_chunk_eligibility_gate(self):
        index = FleetCacheIndex(publish_tokens=16, chunk_size=4)
        cache = object()
        index.attach("r0", cache)
        index.publish("r0", cache, [1, 2, 3])     # depth 3: not aligned
        index.publish("r0", cache, [1, 2, 3, 4])  # depth 4: aligned
        # Mid-query, only the chunk-aligned depth counts...
        assert index.longest_match([1, 2, 3, 4, 5])[0] == 4
        # ...but a whole-query match needs no alignment.
        assert index.longest_match([1, 2, 3]) == (3, ("r0",))

    def test_chunk_size_adopted_from_first_cache(self):
        index = FleetCacheIndex(publish_tokens=16)
        cache = PrefixCache(max_bytes=100, chunk_size=4)
        index.attach("r0", cache)
        assert index.chunk_size == 4

    def test_unpublish_and_prune(self):
        index = FleetCacheIndex(publish_tokens=8)
        cache = object()
        index.attach("r0", cache)
        index.publish("r0", cache, [1, 2, 3])
        assert index.unpublish("r0", cache, [1, 2, 3])
        assert index.longest_match([1, 2, 3]) == (0, ())
        assert not index._root.children  # branch pruned, no leak
        assert not index.unpublish("r0", cache, [1, 2, 3])  # already gone

    def test_drop_replica_removes_only_its_keys(self):
        index = FleetCacheIndex(publish_tokens=8)
        c0, c1 = object(), object()
        index.attach("r0", c0)
        index.attach("r1", c1)
        index.publish("r0", c0, [1, 2])
        index.publish("r1", c1, [1, 2])
        index.publish("r0", c0, [3, 4])
        assert index.drop_replica("r0") == 2
        assert index.longest_match([1, 2]) == (2, ("r1",))
        assert index.longest_match([3, 4]) == (0, ())
        # Dropped means deactivated: the dead cache cannot republish.
        assert not index.publish("r0", c0, [5, 6])

    def test_stale_cache_events_refused_after_reattach(self):
        index = FleetCacheIndex(publish_tokens=8)
        old, new = object(), object()
        index.attach("r0", old)
        index.publish("r0", old, [1, 2])
        index.attach("r0", new)  # restart: old entries dropped atomically
        assert index.longest_match([1, 2]) == (0, ())
        assert not index.publish("r0", old, [3, 4])   # stale publisher
        assert index.publish("r0", new, [3, 4])
        # A stale clear must not wipe the replacement's entries.
        assert index.drop_replica("r0", if_cache=old) == 0
        assert index.longest_match([3, 4]) == (2, ("r0",))

    def test_stats(self):
        index = FleetCacheIndex(publish_tokens=8, chunk_size=4)
        cache = object()
        index.attach("r0", cache)
        index.publish("r0", cache, [1, 2, 3, 4])
        stats = index.stats()
        assert stats["entries"] == 1
        assert stats["per_replica"] == {"r0": 1}
        assert stats["published_total"] == 1
        assert stats["publish_tokens"] == 8
        assert stats["chunk_size"] == 4


class TestPrefixCacheFleetHooks:
    def test_listener_sees_insert_evict_clear(self):
        events = []

        class Listener:
            def on_insert(self, key):
                events.append(("insert", key))

            def on_evict(self, key):
                events.append(("evict", key))

            def on_clear(self):
                events.append(("clear", None))

        cache = PrefixCache(max_bytes=10)
        cache.listener = Listener()
        cache.insert([1], "a", nbytes=6)
        cache.insert([2], "b", nbytes=6)  # evicts [1] before its notify
        cache.clear()
        assert events == [("insert", (1,)), ("evict", (1,)),
                          ("insert", (2,)), ("clear", None)]

    def test_listener_exceptions_never_break_the_cache(self):
        class Broken:
            def on_insert(self, key):
                raise RuntimeError("index drift")

        cache = PrefixCache(max_bytes=10)
        cache.listener = Broken()
        assert cache.insert([1], "a", nbytes=1)
        assert cache.lookup([1]) == (1, "a")

    def test_peek_and_match_depth_touch_nothing(self):
        cache = PrefixCache(max_bytes=100)
        cache.insert([1, 2], "a", nbytes=10)
        assert cache.peek([1, 2]) == ("a", 10)
        assert cache.peek([9]) is None
        assert cache.match_depth([1, 2, 3]) == 2
        snap = cache.stats_snapshot()
        assert snap["hits"] == snap["misses"] == 0
        assert snap["lookup_tokens"] == 0

    def test_borrowed_entries_excluded_from_snapshot(self):
        cache = PrefixCache(max_bytes=100)
        cache.insert([1, 2], "owned", nbytes=10)
        cache.insert([3, 4], "copy", nbytes=10, borrowed=True)
        assert [key for key, _, _ in cache.entries_snapshot()] == [(1, 2)]
        assert len(cache.entries_snapshot(include_borrowed=True)) == 2
        # Borrowed entries still serve lookups normally.
        assert cache.lookup([3, 4]) == (2, "copy")

    def test_owned_insert_upgrades_borrowed_entry(self):
        cache = PrefixCache(max_bytes=100)
        cache.insert([1, 2], "copy", nbytes=10, borrowed=True)
        cache.insert([1, 2], "own", nbytes=10)
        assert [key for key, _, _ in cache.entries_snapshot()] == [(1, 2)]
        # ...and a later borrow never downgrades it back.
        cache.insert([1, 2], "copy2", nbytes=10, borrowed=True)
        assert [key for key, _, _ in cache.entries_snapshot()] == [(1, 2)]

    def test_pinned_entries_evicted_last(self):
        cache = PrefixCache(max_bytes=20)
        cache.insert([1], "hot", nbytes=10)
        assert cache.pin([1])
        cache.insert([2], "cold", nbytes=10)
        cache.insert([3], "cold2", nbytes=10)  # evicts [2], not pinned [1]
        assert [1] in cache
        assert [2] not in cache
        # Budget outranks the pin when only pinned entries remain.
        assert cache.pin([3])
        cache.insert([4], "x", nbytes=15)
        assert cache.stats.bytes <= 20
        assert not cache.pin([9])  # absent key

    def test_pin_is_a_refcounted_lease(self):
        cache = PrefixCache(max_bytes=100)
        cache.insert([1], "hot", nbytes=10)
        assert cache.pin([1]) and cache.pin([1])  # two borrowers
        assert cache.unpin([1])
        assert cache.pinned_count() == 1  # one lease still out
        assert cache.unpin([1])
        assert cache.pinned_count() == 0
        assert cache.unpin([1])  # an extra release never goes negative
        assert cache.pin([1])
        assert cache.pinned_count() == 1
        assert not cache.unpin([9])  # absent key


class TestRouterCacheAwarePlacement:
    def _warm_on_other(self, router, prompt):
        """Route ``prompt`` once through the non-home replica via drain."""
        home = router.affinity_replica(prompt)
        other = next(n for n in router.replica_names() if n != home)
        router.drain(home, timeout=10)
        served = router.submit(prompt, CONFIG)
        assert served.replica == other
        result = served.result(timeout=30)
        router.readmit(home)
        return home, other, result

    def test_unsaturated_routes_to_published_holder(self, model, registry):
        with _router(model, registry) as router:
            prompt = [1, 2, 3]
            expected = _reference(model, prompt)
            home, other, first = self._warm_on_other(router, prompt)
            assert first == expected
            # The ring says home; the index knows the survivor holds the
            # prefix — cache-aware placement follows the cache.
            landed = router.submit(prompt, CONFIG)
            assert landed.replica == other
            assert landed.result(timeout=30) == expected
            reasons = router.stats()["placement"]["reasons"]
            assert reasons["cache"] >= 1

    def test_saturated_holder_still_spills(self, model, registry):
        with _router(model, registry, saturation_tokens=0) as router:
            prompt = [1, 2, 3]
            expected = _reference(model, prompt)
            home, other, _ = self._warm_on_other(router, prompt)
            injector = FaultInjector(
                {"model.forward": FaultSpec(delay_seconds=0.02)})
            with inject_faults(injector):
                first = router.submit(prompt, CONFIG)   # holder: other
                second = router.submit(prompt, CONFIG)  # holder saturated
                assert first.replica == other
                assert second.replica == home
                assert first.result(timeout=30) == expected
                assert second.result(timeout=30) == expected
            stats = router.stats()
            assert stats["placement"]["spill_total"] >= 1
            assert stats["placement"]["reasons"]["spill"] >= 1

    def test_diverted_request_borrows_owner_snapshot(self, model, registry):
        with _router(model, registry) as router:
            prompt = [1, 2, 3]
            expected = _reference(model, prompt)
            home = router.affinity_replica(prompt)
            other = next(n for n in router.replica_names() if n != home)
            assert router.generate(prompt, CONFIG) == expected  # warm home
            router.drain(home, timeout=10)
            # Diverted off the holder: the survivor borrows home's
            # frozen snapshot instead of recomputing prefill.
            diverted = router.submit(prompt, CONFIG)
            assert diverted.replica == other
            assert diverted.result(timeout=30) == expected
            tier = router.stats()["cache_tier"]
            assert tier["borrows"] >= 1
            assert tier["borrow_tokens"] >= len(prompt)
            other_cache = router._replicas[other].supervisor.prefix_cache
            assert tuple(prompt) in other_cache
            # The borrowed copy is never spilled by the borrower...
            borrowed_keys = [key for key, _, _
                             in other_cache.entries_snapshot()]
            assert tuple(prompt) not in borrowed_keys
            # ...and the owner's copy was leased only while the borrower
            # was in flight: the pin retired with the request.
            home_cache = router._replicas[home].supervisor.prefix_cache
            router._observe_health()  # the heartbeat's retirement sweep
            assert home_cache.pinned_count() == 0

    def test_borrow_lease_pins_owner_while_in_flight(self, model, registry):
        with _router(model, registry) as router:
            prompt = [1, 2, 3]
            home = router.affinity_replica(prompt)
            router.generate(prompt, CONFIG)  # warm home
            router.drain(home, timeout=10)
            home_cache = router._replicas[home].supervisor.prefix_cache
            injector = FaultInjector(
                {"model.forward": FaultSpec(delay_seconds=0.05)})
            with inject_faults(injector):
                diverted = router.submit(prompt, CONFIG)
                # The borrower is decoding: the owner's copy is leased.
                assert home_cache.pinned_count() == 1
                diverted.result(timeout=30)
            router._observe_health()
            assert home_cache.pinned_count() == 0

    def test_quiet_fleet_holds_no_pins(self, model, registry):
        # Borrows across two replicas (drain flips which one holds the
        # prefixes), then quiet: every lease is back, on every cache.
        with _router(model, registry) as router:
            prompts = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 2, 3, 4]]
            for round_ in range(2):
                for name in router.replica_names():
                    router.drain(name, timeout=10)
                    handles = [router.submit(p, CONFIG) for p in prompts]
                    for handle in handles:
                        handle.result(timeout=30)
                    router.readmit(name)
            assert router.stats()["cache_tier"]["borrows"] >= 1
            for name in router.replica_names():
                router.drain(name, timeout=10)  # quiet: nothing in flight
            router._observe_health()
            for name in router.replica_names():
                cache = router._replicas[name].supervisor.prefix_cache
                assert cache.pinned_count() == 0

    def test_dead_holder_recomputes_identically(self, model, registry):
        with _router(model, registry) as router:
            prompt = [1, 2, 3]
            expected = _reference(model, prompt)
            home = router.affinity_replica(prompt)
            assert router.generate(prompt, CONFIG) == expected
            assert router.fleet_index.longest_match(prompt)[1] == (home,)
            # Kill the holder outright: its published entries invalidate
            # and traffic recomputes on a survivor, bit-identically.
            router._replicas[home].supervisor.stop(timeout=10)
            assert router.generate(prompt, CONFIG) == expected
            router._observe_health()  # the heartbeat's dead-replica sweep
            assert home not in router.fleet_index.longest_match(prompt)[1]
            assert router.stats()["cache_tier"]["borrows"] == 0

    def test_borrow_fault_degrades_to_recompute(self, model, registry):
        with _router(model, registry) as router:
            prompt = [1, 2, 3]
            expected = _reference(model, prompt)
            home = router.affinity_replica(prompt)
            assert router.generate(prompt, CONFIG) == expected
            router.drain(home, timeout=10)
            injector = FaultInjector(
                {"fleet_cache.borrow": FaultSpec(rate=1.0)})
            with inject_faults(injector):
                assert router.generate(prompt, CONFIG) == expected
            assert router.stats()["cache_tier"]["borrows"] == 0

    def test_fleet_cache_disabled_restores_ring_placement(self, model,
                                                          registry):
        with _router(model, registry, fleet_cache=False) as router:
            assert router.fleet_index is None
            prompt = [1, 2, 3]
            expected = _reference(model, prompt)
            home, _, _ = self._warm_on_other(router, prompt)
            # Without the tier the readmitted home serves its prefix.
            landed = router.submit(prompt, CONFIG)
            assert landed.replica == home
            assert landed.result(timeout=30) == expected
            tier = router.stats()["cache_tier"]
            assert tier["enabled"] is False
            assert tier["index"] is None

    def test_hit_token_rate_gauge_aggregates_fleet(self, model, registry):
        with _router(model, registry) as router:
            prompt = [1, 2, 3]
            router.generate(prompt, CONFIG)
            router.generate(prompt, CONFIG)  # same replica: cache hit
            tier = router.stats()["cache_tier"]
            assert tier["lookup_tokens"] > 0
            assert tier["hit_tokens"] > 0
            assert 0.0 < tier["hit_token_rate"] <= 1.0
            gauge = registry.gauge("cluster_cache_hit_token_rate").labels()
            assert gauge.value == pytest.approx(tier["hit_token_rate"])

    def test_zipf_skew_routes_hot_prefixes_bit_identically(self, model,
                                                           registry):
        # A deterministic Zipf-ish mix: one hot head dominating, a tail
        # of cold one-off prompts.  Every routed output must equal the
        # single-engine reference, and the hot prefix must produce
        # cache-reason placements once published.
        hot = [1, 2, 3]
        workload = [hot, [4, 5], hot, [6, 7], hot, [8, 9, 10], hot, hot]
        references = {tuple(p): _reference(model, p)
                      for p in {tuple(w) for w in workload}
                      for p in [list(p)]}
        with _router(model, registry, replicas=3) as router:
            for prompt in workload:
                assert router.generate(prompt, CONFIG) == \
                    references[tuple(prompt)]
            reasons = router.stats()["placement"]["reasons"]
            assert sum(reasons.values()) == len(workload)
            assert reasons["affinity"] >= 1
