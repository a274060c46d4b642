"""Replicated serving: N >= 1 supervised engines behind one router.

A single :class:`~repro.serving.InferenceEngine` is a single point of
failure and a hard ceiling on concurrency, cache capacity and upgrade
agility.  ``repro.cluster`` runs N replicas — each its own engine with
an *isolated* prefix cache, wrapped in its own
:class:`~repro.resilience.EngineSupervisor` — behind a :class:`Router`
that mirrors the engine's ``submit`` / ``generate`` / ``stop``
surface.  It is the backend's only serving topology: a single engine
is a fleet of one, with the same admission gate, health rollup and
degraded sequential fallback as a larger fleet.

Placement is **prefix-affine**: recipe prompts share long prefixes
(every request starts with the same ``<RECIPE_START>`` /
ingredient-list scaffold), and a prefix-cache hit is only possible on
the replica whose trie already holds that path.  The router therefore
consistent-hashes the first ``affinity_tokens`` prompt ids onto a ring
of virtual nodes: requests sharing a leading chunk land on the same
replica, keeping each cache's working set disjoint instead of
duplicating every prefix N times.  When the affinity target is
saturated the router spills balance-of-two style to the least-queued
eligible replica — affinity is a heuristic for cache locality, never a
correctness constraint, because engine output is bit-identical on
every replica.

The hash ring knows where a prefix *should* live; the **fleet cache
tier** (on by default, ``ClusterConfig.fleet_cache``) knows where it
actually *is*.  Every replica's prefix cache publishes its stored
prefixes into a shared :class:`FleetCacheIndex`, and placement prefers
the eligible replica holding the longest published match over the
static ring — subject to the same saturation load guard, so a hot
holder still spills balance-of-two.  When placement must divert off
every holder (saturation, drain, death), the chosen replica *borrows*
the owner's frozen KV snapshot read-through instead of recomputing
prefill — safe because frozen :class:`~repro.nn.KVCache` snapshots are
copy-on-append and weights are already fleet-shared.  See
``docs/CLUSTER.md`` for tuning and semantics.

That same determinism makes **failover transparent**: a request whose
replica dies mid-decode is re-dispatched to a survivor and the retried
result is byte-equal to an unfailed run (chaos-tested with a seeded
:class:`~repro.resilience.FaultInjector`).  Failover is driven by the
consumer side of :class:`ClusterRequest` — the first ``result()`` /
``tokens()`` caller to observe the replica's named crash error
re-dispatches — so there is no extra watcher thread per request; a
streaming consumer skips the tokens it already delivered, which is
sound only because the replay emits the identical stream.

Rolling operations: :meth:`Router.drain` stops new admissions to one
replica and waits for its in-flight work, :meth:`Router.swap` replaces
the drained replica's engine (new weights, new config — anything the
factory builds), :meth:`Router.readmit` returns it to rotation.  A
drain → swap → readmit cycle drops zero requests by construction.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from ..models import GenerationConfig, LogitsProcessor
from ..obs import MetricsRegistry, Tracer, get_registry, get_tracer
from ..resilience.admission import OverloadShedError
from ..resilience.faults import InjectedFault, fault_check
from ..resilience.supervisor import (EngineSupervisor, EngineUnavailableError,
                                     Fallback)
from ..serving.engine import (DeadlineExceededError, EngineCrashedError,
                              EngineQueueFullError, EngineRequest,
                              EngineStoppedError, InferenceEngine)
from .admission import ClusterAdmissionController
from .fleet_cache import FleetCacheIndex

__all__ = ["ClusterConfig", "ClusterRequest", "DegradableRequest",
           "NoReplicaAvailableError", "Router"]

#: Errors that mean "this replica cannot finish the request" — the
#: router re-dispatches to a survivor.  Request-level errors (deadline
#: expiry, validation) are deliberately absent: failing over cannot
#: change their meaning.
_FAILOVER_ERRORS = (EngineCrashedError, EngineStoppedError,
                    EngineUnavailableError)

#: Health-state severity, worst last.  ``draining`` outranks
#: ``degraded`` for fleet rollups: an operator took it out on purpose.
_SEVERITY = ("healthy", "degraded", "draining", "dead")


class NoReplicaAvailableError(RuntimeError):
    """Every replica is dead, draining, or excluded by prior failures."""


#: Errors a configured degraded fallback answers instead of the fleet.
_DEGRADABLE_ERRORS = _FAILOVER_ERRORS + (NoReplicaAvailableError,)


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet knobs (independent of per-engine :class:`EngineConfig`)."""

    replicas: int = 2
    #: Leading prompt ids hashed for placement.  One prefill chunk (32)
    #: keys on exactly the prefix the cache can reuse; see
    #: ``docs/CLUSTER.md`` for the tuning trade-off against load skew.
    affinity_tokens: int = 32
    #: Queued-token level past which the affinity target spills
    #: balance-of-two to the least-queued eligible replica.
    saturation_tokens: int = 1024
    #: Per-replica admission watermark; ``None`` disables shedding.
    watermark_tokens: Optional[int] = None
    tokens_per_second_hint: float = 200.0
    #: Re-dispatch budget per request before its crash error surfaces.
    max_failovers: int = 2
    max_restarts: int = 3
    restart_backoff_seconds: float = 0.05
    heartbeat_seconds: float = 0.05
    virtual_nodes: int = 64
    #: Fleet cache tier: replicas publish cached prefixes into a shared
    #: :class:`FleetCacheIndex` and placement prefers the replica
    #: holding the longest published match over the static ring.
    fleet_cache: bool = True
    #: Depth cap on published prefixes; deeper entries are still served
    #: by the owning replica's cache, just never advertised fleet-wide.
    publish_tokens: int = 128
    #: Read-through KV borrowing when placement diverts off every
    #: holder (saturation, drain, death) — the chosen replica copies
    #: the owner's frozen snapshot instead of recomputing prefill.
    borrow: bool = True

    def validate(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.affinity_tokens < 1:
            raise ValueError("affinity_tokens must be >= 1")
        if self.saturation_tokens < 0:
            raise ValueError("saturation_tokens must be >= 0")
        if self.max_failovers < 0:
            raise ValueError("max_failovers must be >= 0")
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        if self.heartbeat_seconds <= 0:
            raise ValueError("heartbeat_seconds must be > 0")
        if self.publish_tokens < 1:
            raise ValueError("publish_tokens must be >= 1")


class _Attempt:
    """One dispatch of a request to one replica."""

    __slots__ = ("replica", "handle")

    def __init__(self, replica: "_Replica", handle: EngineRequest) -> None:
        self.replica = replica
        self.handle = handle


@dataclass(frozen=True)
class _Placement:
    """Why a dispatch landed where it did (drives borrowing + metrics).

    ``reason`` is one of ``affinity`` (landed on the ring home),
    ``cache`` (diverted to a published-prefix holder), ``spill``
    (load guard diverted off the preferred target), ``fallback``
    (home unavailable, no usable holder).  ``depth``/``holders`` echo
    the fleet index's longest published match for the prompt.
    """

    reason: str
    home: str
    depth: int
    holders: Tuple[str, ...]


#: A borrow's pin on the owner's cache entry: ``(owner_cache, key)``.
_Lease = Tuple[Any, Tuple[int, ...]]


def _release(lease: Optional[_Lease]) -> None:
    if lease is not None:
        cache, key = lease
        cache.unpin(key)


class _Replica:
    """One supervised engine plus the router's bookkeeping about it."""

    def __init__(self, name: str, supervisor: EngineSupervisor,
                 factory: Callable[[], InferenceEngine]) -> None:
        self.name = name
        self.supervisor = supervisor
        self.factory = factory
        self.draining = False
        self.lock = threading.Lock()
        #: Outstanding work: id(entry) -> (handle-or-None, cost, lease).
        #: Entries with a handle self-prune once the handle resolves;
        #: handle-less entries (the beam/sequential path) are removed
        #: explicitly by their dispatcher.  ``lease`` is the owner-cache
        #: pin a KV borrow took for this request (or ``None``); it is
        #: released when the entry retires, so pins never outlive the
        #: requests that borrowed.
        self._outstanding: Dict[int, Tuple[Optional[EngineRequest], int,
                                           Optional[_Lease]]] = {}
        self.dispatches = 0
        self.failovers = 0

    # -- health -------------------------------------------------------
    @property
    def state(self) -> str:
        if self.draining:
            return "draining"
        supervisor_state = self.supervisor.state
        if supervisor_state == "serving":
            return "healthy"
        if supervisor_state == "restarting":
            return "degraded"
        return "dead"  # failed | stopped

    # -- queued-token accounting --------------------------------------
    def track(self, handle: Optional[EngineRequest], cost: int,
              lease: Optional[_Lease] = None) -> int:
        entry = (handle, cost, lease)
        key = id(entry)
        with self.lock:
            self._outstanding[key] = entry
        return key

    def untrack(self, key: int) -> None:
        with self.lock:
            entry = self._outstanding.pop(key, None)
        if entry is not None:
            _release(entry[2])

    def queued_tokens(self) -> int:
        """Outstanding decode-token cost; prunes resolved handles."""
        with self.lock:
            done = [key for key, (handle, _, _) in self._outstanding.items()
                    if handle is not None and handle.done]
            retired = [self._outstanding.pop(key)[2] for key in done]
            queued = sum(cost for _, cost, _ in self._outstanding.values())
        for lease in retired:
            _release(lease)
        return queued

    def outstanding(self) -> int:
        self.queued_tokens()  # prune
        with self.lock:
            return len(self._outstanding)


class ClusterRequest:
    """Routed request handle, mirroring :class:`EngineRequest`.

    ``result()`` / ``tokens()`` transparently re-dispatch to a
    surviving replica when the serving one dies; a streaming consumer
    skips the replayed prefix it already delivered (sound because the
    engine's output is bit-identical across replicas).  Timeouts are
    per attempt, not per request.
    """

    def __init__(self, router: "Router", request_id: int,
                 prompt_ids: List[int], config: GenerationConfig,
                 processors: Sequence[LogitsProcessor],
                 deadline_ms: Optional[float], cost: int) -> None:
        self._router = router
        self.request_id = request_id
        self.prompt_ids = prompt_ids
        self.config = config
        self.processors = processors
        self.deadline_ms = deadline_ms
        self.cost = cost
        self.submitted_at = router._clock.now()
        self.failovers = 0
        self._cancelled = False
        self._lock = threading.Lock()
        self._attempt: Optional[_Attempt] = None
        self._track_key: Optional[int] = None

    # -- introspection ------------------------------------------------
    @property
    def replica(self) -> Optional[str]:
        """Name of the replica currently serving this request."""
        attempt = self._attempt
        return attempt.replica.name if attempt is not None else None

    @property
    def done(self) -> bool:
        attempt = self._attempt
        return attempt is not None and attempt.handle.done

    def remaining_deadline_ms(self) -> Optional[float]:
        """Deadline budget left, on the router clock; None if unset."""
        if self.deadline_ms is None:
            return None
        elapsed = self._router._clock.now() - self.submitted_at
        return self.deadline_ms - elapsed * 1000.0

    # -- consumption --------------------------------------------------
    def result(self, timeout: Optional[float] = None) -> List[int]:
        """Block for the full token list, failing over as needed."""
        while True:
            attempt = self._attempt
            assert attempt is not None
            try:
                return attempt.handle.result(timeout=timeout)
            except _FAILOVER_ERRORS as error:
                self._router._failover(self, attempt, error)

    def tokens(self, timeout: Optional[float] = None) -> Iterator[int]:
        """Stream tokens as they decode, deduplicating across failover."""
        delivered = 0
        while True:
            attempt = self._attempt
            assert attempt is not None
            # A failed-over attempt replays the whole stream from the
            # start; skip the prefix this consumer already yielded
            # (byte-equal by the engine's determinism contract).
            skip = delivered
            try:
                for token in attempt.handle.tokens(timeout=timeout):
                    if skip > 0:
                        skip -= 1
                        continue
                    delivered += 1
                    yield token
                return
            except _FAILOVER_ERRORS as error:
                self._router._failover(self, attempt, error)

    def cancel(self) -> bool:
        """Cancel the current attempt; no further failover happens."""
        with self._lock:
            self._cancelled = True
            attempt = self._attempt
        return attempt.handle.cancel() if attempt is not None else False


class DegradableRequest:
    """A dispatched blocking decode with the fleet's degraded fallback.

    Built by :meth:`Router.submit_degradable`.  When the fleet cannot
    serve the request — no replica is live at dispatch, or the
    failover budget is spent by the time ``result()`` collects it —
    and the router has a ``fallback``, the request decodes
    sequentially at collection time and is reported degraded.
    Request-level errors (deadline, validation, shed) propagate.
    """

    #: Whether ``result()`` answered through the fallback.
    degraded = False

    def __init__(self, router: "Router", prompt_ids: Sequence[int],
                 config: GenerationConfig,
                 processors: Sequence[LogitsProcessor],
                 deadline_ms: Optional[float], admitted: bool) -> None:
        self._router = router
        self._prompt_ids = prompt_ids
        self._config = config
        self._processors = processors
        self._request: Optional[ClusterRequest] = None
        try:
            self._request = router.submit(prompt_ids, config, processors,
                                          deadline_ms=deadline_ms,
                                          admitted=admitted)
        except _DEGRADABLE_ERRORS:
            if not router._can_degrade():
                raise

    @property
    def in_flight(self) -> bool:
        """Whether the fleet is still decoding (and charging for) it."""
        return self._request is not None and not self._request.done

    def result(self) -> List[int]:
        """Block for the tokens; sets :attr:`degraded` on a fallback."""
        if self._request is not None:
            try:
                return self._request.result()
            except _DEGRADABLE_ERRORS:
                if not self._router._can_degrade():
                    raise
        self.degraded = True
        return self._router._degrade(self._prompt_ids, self._config,
                                     self._processors)

    def cancel(self) -> None:
        if self._request is not None:
            self._request.cancel()


class _ClusterMetrics:
    """Cluster metric handles, resolved once at construction."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.dispatches = registry.counter(
            "cluster_dispatches_total",
            help="Requests dispatched, by serving replica")
        self.failovers = registry.counter(
            "cluster_failovers_total",
            help="Re-dispatches after a replica failure, by failed replica")
        self.affinity_hits = registry.counter(
            "cluster_affinity_hits_total",
            help="Dispatches that landed on the prefix-affinity target"
        ).labels()
        self.affinity_spills = registry.counter(
            "cluster_affinity_spills_total",
            help="Dispatches spilled off the affinity target (saturation, "
                 "drain, death, or failover exclusion)").labels()
        self.affinity_hit_rate = registry.gauge(
            "cluster_affinity_hit_rate",
            help="Lifetime fraction of dispatches on the affinity target"
        ).labels()
        self.placement = registry.counter(
            "cluster_placement",
            help="Placement decisions, by reason "
                 "(affinity|cache|spill|fallback)")
        self.spill_total = registry.counter(
            "cluster_spill_total",
            help="Dispatches diverted off the preferred target by the "
                 "saturation load guard (balance of two)").labels()
        self.borrows = registry.counter(
            "cluster_kv_borrows_total",
            help="Cross-replica KV snapshot borrows, by borrowing replica")
        self.borrow_tokens = registry.counter(
            "cluster_kv_borrow_tokens_total",
            help="Prompt tokens whose prefill was skipped by borrowing "
                 "another replica's frozen KV snapshot").labels()
        self.cache_hit_token_rate = registry.gauge(
            "cluster_cache_hit_token_rate",
            help="Fleet-aggregated fraction of looked-up prompt tokens "
                 "served from prefix caches").labels()
        self.queued_tokens = registry.gauge(
            "cluster_queued_tokens",
            help="Outstanding decode-token cost, by replica")
        self.replica_up = registry.gauge(
            "cluster_replica_up",
            help="1 while the replica is healthy, 0 otherwise")
        self.healthy = registry.gauge(
            "cluster_replicas_healthy",
            help="Replicas currently healthy").labels()
        self.draining = registry.gauge(
            "cluster_replicas_draining",
            help="Replicas currently draining").labels()
        self.drain_seconds = registry.histogram(
            "cluster_drain_seconds",
            help="Wall-clock duration of drain() waits").labels()
        self.degraded = registry.counter(
            "engine_degraded_requests_total",
            help="Requests served by the degraded fallback").labels()


class Router:
    """Prefix-affinity router over N supervised engine replicas.

    Parameters
    ----------
    engine_factory:
        Called with the replica *name* (``"r0"`` … ``"rN-1"``) to build
        each engine — and again on supervisor restarts and
        :meth:`swap`.  Pass the name through to
        ``InferenceEngine(name=...)`` so metric series carry the
        per-replica ``engine=`` / ``cache=`` labels.
    config:
        :class:`ClusterConfig`; the default runs two replicas.
    spill:
        Optional :class:`~repro.durability.FleetCacheSpill`-shaped
        object (``for_replica(name)``).  Each replica's supervisor gets
        its own per-replica spill directory, so restarts, ``swap`` and
        process restarts reload that replica's own prefix working set —
        warm caches stay disjoint exactly like the live ones.
    fallback:
        Optional degraded decoder (see
        :func:`~repro.resilience.sequential_fallback`).  When no
        replica can serve a blocking :meth:`generate_ex` (or a
        :meth:`submit_degradable` handle) — none is live, or the
        failover budget is spent — the request decodes sequentially
        through it and is reported ``degraded``.
        Streaming (:meth:`submit`) has no degraded path.
    """

    def __init__(self, engine_factory: Callable[[str], InferenceEngine],
                 config: Optional[ClusterConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 spill: Optional[Any] = None,
                 fallback: Optional[Fallback] = None) -> None:
        self.config = config or ClusterConfig()
        self.config.validate()
        self.spill = spill
        self.fallback = fallback
        #: Whether :meth:`stop` wrote at least one replica's warm
        #: snapshot; ``None`` until stop runs or when no spill is
        #: configured (mirrors ``EngineSupervisor.last_spill_saved``).
        self.last_spill_saved: Optional[bool] = None
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._clock = self.registry.clock
        self._metrics = _ClusterMetrics(self.registry)
        self.admission = ClusterAdmissionController(
            watermark_tokens=self.config.watermark_tokens,
            tokens_per_second_hint=self.config.tokens_per_second_hint,
            registry=self.registry)
        #: Shared fleet-wide prefix index; built before the replicas so
        #: the bound factories can attach each engine's cache to it.
        self.fleet_index: Optional[FleetCacheIndex] = (
            FleetCacheIndex(publish_tokens=self.config.publish_tokens)
            if self.config.fleet_cache else None)
        self._replicas: Dict[str, _Replica] = {}
        for index in range(self.config.replicas):
            name = f"r{index}"
            factory = self._bind_factory(engine_factory, name)
            self._replicas[name] = _Replica(
                name, self._build_supervisor(factory, name), factory)
        self._ring = self._build_ring(list(self._replicas))
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._dispatch_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._heartbeat = threading.Thread(target=self._heartbeat_loop,
                                           name="repro-cluster-heartbeat",
                                           daemon=True)
        self._heartbeat.start()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _bind_factory(self, engine_factory: Callable[[str], InferenceEngine],
                      name: str) -> Callable[[], InferenceEngine]:
        def build() -> InferenceEngine:
            engine = engine_factory(name)
            self._attach_fleet_cache(name, engine)
            return engine
        return build

    def _attach_fleet_cache(self, name: str,
                            engine: InferenceEngine) -> None:
        """Wire a fresh engine's prefix cache into the fleet index.

        Runs on every engine build — construction, supervisor restarts
        and :meth:`swap` — so the index always tracks the *live* cache:
        attaching drops the replica's stale entries and invalidates the
        old cache's publisher.  The supervisor's warm reload happens
        after the factory returns, so spilled entries re-publish
        through the listener as they are re-inserted.
        """
        if self.fleet_index is None:
            return
        cache = getattr(engine, "prefix_cache", None)
        if cache is None:
            return
        cache.listener = self.fleet_index.attach(name, cache)

    def _build_supervisor(self, factory: Callable[[], InferenceEngine],
                          name: str) -> EngineSupervisor:
        replica_spill = (self.spill.for_replica(name)
                         if self.spill is not None else None)
        return EngineSupervisor(
            factory, max_restarts=self.config.max_restarts,
            backoff_seconds=self.config.restart_backoff_seconds,
            poll_seconds=min(0.02, self.config.heartbeat_seconds),
            registry=self.registry, spill=replica_spill)

    def _build_ring(self, names: List[str]) -> List[Tuple[int, str]]:
        ring = [(self._hash(f"{name}#{vnode}".encode("utf-8")), name)
                for name in names
                for vnode in range(self.config.virtual_nodes)]
        ring.sort()
        return ring

    @staticmethod
    def _hash(data: bytes) -> int:
        # Stable across processes (unlike the salted builtin hash), so
        # a restarted router routes the same prefixes the same way.
        return int.from_bytes(
            hashlib.blake2b(data, digest_size=8).digest(), "big")

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _affinity_key(self, prompt_ids: Sequence[int]) -> bytes:
        head = prompt_ids[:self.config.affinity_tokens]
        return ",".join(str(int(token)) for token in head).encode("ascii")

    def _ring_order(self, prompt_ids: Sequence[int]) -> List[str]:
        """Replica names in affinity order for this prompt's leading chunk.

        The first entry is the prompt's *home*; later entries are the
        deterministic fallback order, so a dead home always spills to
        the same survivor (keeping spilled prefixes cache-warm too).
        """
        point = self._hash(self._affinity_key(prompt_ids))
        index = bisect.bisect_left(self._ring, (point, ""))
        order: List[str] = []
        for offset in range(len(self._ring)):
            _, name = self._ring[(index + offset) % len(self._ring)]
            if name not in order:
                order.append(name)
                if len(order) == len(self._replicas):
                    break
        return order

    def affinity_replica(self, prompt_ids: Sequence[int]) -> str:
        """The prompt's home replica, ignoring health (for tests/benchmarks)."""
        return self._ring_order(prompt_ids)[0]

    def check_admission(self, cost_tokens: int) -> None:
        """Advisory fleet-admission probe for the HTTP layer.

        Raises :class:`~repro.resilience.OverloadShedError` when every
        live replica is past its watermark — the same decision dispatch
        would make — without recording an admission (dispatch does
        that when it actually happens).
        """
        queued = {name: replica.queued_tokens()
                  for name, replica in self._replicas.items()
                  if replica.state in ("healthy", "degraded")}
        if queued:
            self.admission.eligible(queued, cost_tokens, record_admit=False)

    def _place(self, prompt_ids: Sequence[int], cost: int,
               exclude: Set[str], enforce_admission: bool
               ) -> Tuple[_Replica, _Placement]:
        candidates = {name: replica
                      for name, replica in self._replicas.items()
                      if name not in exclude
                      and replica.state in ("healthy", "degraded")}
        if not candidates:
            raise NoReplicaAvailableError(
                "no replica available: "
                + ", ".join(f"{name}={replica.state}"
                            + (" (excluded)" if name in exclude else "")
                            for name, replica in self._replicas.items()))
        queued = {name: replica.queued_tokens()
                  for name, replica in candidates.items()}
        if enforce_admission:
            eligible = self.admission.eligible(queued, cost)
        else:
            # Failover re-dispatch: the request was already admitted
            # once; shedding it now would turn a survivable replica
            # death into a dropped request.
            eligible = list(candidates)
        order = self._ring_order(prompt_ids)
        home = order[0]
        eligible_set = set(eligible)
        # Cache-aware preference: the eligible replica holding the
        # longest published matching prefix, tie-broken in ring order
        # (so the home wins when it is itself a holder and cold traffic
        # keeps the ring's disjoint working sets).
        depth, holders = ((0, ()) if self.fleet_index is None
                          else self.fleet_index.longest_match(prompt_ids))
        target = None
        if depth > 0:
            target = next((name for name in order
                           if name in holders and name in eligible_set), None)
        if target is not None:
            reason = "affinity" if target == home else "cache"
        else:
            target = next((name for name in order if name in eligible_set),
                          None)
            reason = "affinity" if target == home else "fallback"
        if target is None:
            chosen = min(eligible, key=lambda name: queued[name])
            reason = "fallback"
        elif (queued[target] + cost <= self.config.saturation_tokens
              or len(eligible) == 1):
            chosen = target
        else:
            # Balance of two: the preferred target is saturated, so
            # compare it against the least-queued alternative only —
            # enough to flatten skew without scattering every prefix.
            alternative = min((name for name in eligible if name != target),
                              key=lambda name: queued[name])
            if queued[alternative] < queued[target]:
                chosen = alternative
                reason = "spill"
                self._metrics.spill_total.inc()
            else:
                chosen = target
        self._metrics.placement.labels(reason=reason).inc()
        if chosen == home:
            self._metrics.affinity_hits.inc()
        else:
            self._metrics.affinity_spills.inc()
        hits = self._metrics.affinity_hits.value
        spills = self._metrics.affinity_spills.value
        self._metrics.affinity_hit_rate.set(hits / (hits + spills))
        return candidates[chosen], _Placement(reason=reason, home=home,
                                              depth=depth, holders=holders)

    def _cache_of(self, replica: _Replica):
        try:
            return replica.supervisor.prefix_cache
        except Exception:  # noqa: BLE001 - engine mid-restart or dead
            return None

    def _maybe_borrow(self, replica: _Replica, placement: _Placement,
                      prompt_ids: Sequence[int]) -> Optional[_Lease]:
        """Read-through cross-replica KV borrow, best-effort.

        When placement diverted off every holder of the longest
        published prefix (saturation, drain, death, failover
        exclusion), copy the owner's frozen snapshot into the chosen
        replica's cache — marked ``borrowed`` so the spill layer never
        persists it a second time — instead of recomputing prefill.
        Sharing the snapshot object is safe because frozen
        :class:`~repro.nn.KVCache` snapshots are copy-on-append and the
        cached logits row is read-only by contract.  Every failure mode
        (owner died, entry evicted since published, injected transfer
        fault) degrades to a cold prefill, never to a failed request.

        Returns the lease pinning the owner's copy for the borrowing
        request's lifetime (the caller tracks it with the request and
        it is released when the request retires), or ``None`` when no
        borrow happened.
        """
        if (self.fleet_index is None or not self.config.borrow
                or placement.depth == 0
                or replica.name in placement.holders):
            return None
        try:
            fault_check("fleet_cache.borrow")
        except InjectedFault:
            return None
        key = tuple(int(token) for token in prompt_ids[:placement.depth])
        target_cache = self._cache_of(replica)
        if target_cache is None:
            return None
        if target_cache.match_depth(key) >= placement.depth:
            return None  # already at least as warm locally
        for owner_name in placement.holders:
            owner = self._replicas.get(owner_name)
            # A draining owner is alive and readable — diverting off it
            # is precisely the case borrowing exists for; only a dead
            # owner's cache is off limits.
            if owner is None or owner.state == "dead":
                continue
            owner_cache = self._cache_of(owner)
            if owner_cache is None:
                continue
            found = owner_cache.peek(key)
            if found is None:
                continue  # index lag: the owner evicted it after publishing
            value, nbytes = found
            if not target_cache.insert(key, value, nbytes, borrowed=True):
                continue
            self._metrics.borrows.labels(replica=replica.name).inc()
            self._metrics.borrow_tokens.inc(placement.depth)
            # Lease the owner's copy while the borrower is in flight: a
            # prefix other replicas are reading should outlive the
            # owner's cold churn, but only for as long as they read it.
            return (owner_cache, key) if owner_cache.pin(key) else None
        return None

    # ------------------------------------------------------------------
    # Serving surface (mirrors InferenceEngine)
    # ------------------------------------------------------------------
    def submit(self, prompt_ids: Sequence[int],
               config: Optional[GenerationConfig] = None,
               processors: Sequence[LogitsProcessor] = (),
               deadline_ms: Optional[float] = None, *,
               admitted: bool = False) -> ClusterRequest:
        """Place and dispatch a request; returns a failover-aware handle.

        Raises :class:`OverloadShedError` when every live replica is
        past its admission watermark, :class:`NoReplicaAvailableError`
        when none is live at all, and whatever the chosen engine's
        ``submit`` raises for invalid requests (validation errors are
        never failed over).  ``admitted=True`` skips the watermark
        check, as failover re-dispatch does: the caller already
        admitted this decode as part of a larger priced request (a
        sibling rollout of an MCTS wave), so its own siblings must not
        shed it.  The request still counts against the watermark.
        """
        if self._stop_event.is_set():
            raise EngineStoppedError("router has been stopped")
        config = config or GenerationConfig()
        if config.strategy == "beam":
            raise ValueError("beam search is not batched; use generate()")
        with self._id_lock:
            request_id = self._next_id
            self._next_id += 1
        request = ClusterRequest(self, request_id, list(prompt_ids), config,
                                 processors, deadline_ms,
                                 cost=config.max_new_tokens)
        self._dispatch(request, exclude=set(),
                       enforce_admission=not admitted)
        return request

    def generate(self, prompt_ids: Sequence[int],
                 config: Optional[GenerationConfig] = None,
                 processors: Sequence[LogitsProcessor] = (),
                 deadline_ms: Optional[float] = None) -> List[int]:
        """:meth:`generate_ex` without the degraded flag."""
        tokens, _ = self.generate_ex(prompt_ids, config, processors,
                                     deadline_ms=deadline_ms)
        return tokens

    def generate_ex(self, prompt_ids: Sequence[int],
                    config: Optional[GenerationConfig] = None,
                    processors: Sequence[LogitsProcessor] = (),
                    deadline_ms: Optional[float] = None
                    ) -> Tuple[List[int], bool]:
        """Synchronous generation through the fleet: ``(tokens, degraded)``.

        Beam search (which the engine serves via its sequential
        fallback) is routed the same way and still fails over.  When no
        replica can finish the request — none is live, or the failover
        budget is spent — and a ``fallback`` is configured, the request
        decodes sequentially and ``degraded`` is ``True``.
        Request-level errors (deadline expiry, validation, admission
        shed) always propagate: degrading must not change their
        meaning.
        """
        config = config or GenerationConfig()
        if config.strategy != "beam":
            request = self.submit_degradable(prompt_ids, config, processors,
                                             deadline_ms=deadline_ms)
            return request.result(), request.degraded
        try:
            return self._generate_unbatched(
                prompt_ids, config, processors, deadline_ms), False
        except _DEGRADABLE_ERRORS:
            if not self._can_degrade():
                raise
        return self._degrade(prompt_ids, config, processors), True

    def submit_degradable(self, prompt_ids: Sequence[int],
                          config: Optional[GenerationConfig] = None,
                          processors: Sequence[LogitsProcessor] = (),
                          deadline_ms: Optional[float] = None, *,
                          admitted: bool = False) -> "DegradableRequest":
        """:meth:`submit` without waiting, keeping :meth:`generate_ex`'s
        degraded fallback for when the result is collected.

        Callers that run several blocking decodes at once (an MCTS
        wave) dispatch them all through this, then collect each with
        ``result()``.  ``admitted`` is :meth:`submit`'s.
        """
        return DegradableRequest(self, prompt_ids,
                                 config or GenerationConfig(), processors,
                                 deadline_ms, admitted)

    def _can_degrade(self) -> bool:
        return self.fallback is not None and not self._stop_event.is_set()

    def _degrade(self, prompt_ids: Sequence[int], config: GenerationConfig,
                 processors: Sequence[LogitsProcessor]) -> List[int]:
        config.validate()
        tokens = self.fallback(prompt_ids, config, processors)
        self._metrics.degraded.inc()
        return tokens

    def _generate_unbatched(self, prompt_ids: Sequence[int],
                            config: GenerationConfig,
                            processors: Sequence[LogitsProcessor],
                            deadline_ms: Optional[float]) -> List[int]:
        exclude: Set[str] = set()
        failovers = 0
        while True:
            with self._dispatch_lock:
                replica, placement = self._place(
                    prompt_ids, config.max_new_tokens, exclude,
                    enforce_admission=not exclude)
                lease = self._maybe_borrow(replica, placement, prompt_ids)
                key = replica.track(None, config.max_new_tokens, lease)
            self._note_dispatch(replica)
            try:
                return replica.supervisor.generate(prompt_ids, config,
                                                   processors,
                                                   deadline_ms=deadline_ms)
            except _FAILOVER_ERRORS:
                if failovers >= self.config.max_failovers:
                    raise
                failovers += 1
                exclude.add(replica.name)
                self._note_failover(replica)
            finally:
                replica.untrack(key)

    # ------------------------------------------------------------------
    # Dispatch + failover
    # ------------------------------------------------------------------
    def _note_dispatch(self, replica: _Replica) -> None:
        replica.dispatches += 1
        self._metrics.dispatches.labels(replica=replica.name).inc()
        self._metrics.queued_tokens.labels(replica=replica.name).set(
            replica.queued_tokens())

    def _note_failover(self, replica: _Replica) -> None:
        replica.failovers += 1
        self._metrics.failovers.labels(replica=replica.name).inc()
        if self.fleet_index is not None:
            # The dead engine's published prefixes died with its cache;
            # a restarted engine re-attaches (and republishes its warm
            # reload) through the bound factory.
            self.fleet_index.drop_replica(replica.name)

    def _dispatch(self, request: ClusterRequest, exclude: Set[str],
                  enforce_admission: bool) -> None:
        """Place ``request`` and submit it, skipping replicas that fail.

        On success the request's current attempt is replaced.  Raises
        the last submit error once every candidate is exhausted.
        """
        excluded = set(exclude)
        last_error: Optional[BaseException] = None
        while True:
            # Admission, placement and tracking are one atomic step, so
            # concurrent dispatches cannot all pass the gate before any
            # of them counts against it.
            with self._dispatch_lock:
                try:
                    replica, placement = self._place(request.prompt_ids,
                                                     request.cost, excluded,
                                                     enforce_admission)
                except NoReplicaAvailableError:
                    if last_error is not None:
                        raise last_error
                    raise
                remaining_ms = request.remaining_deadline_ms()
                if remaining_ms is not None and remaining_ms <= 0:
                    raise DeadlineExceededError(request.request_id,
                                                request.deadline_ms or 0.0,
                                                [])
                # Borrow before submit so the engine's prefill lookup
                # finds the snapshot already in its cache.
                lease = self._maybe_borrow(replica, placement,
                                           request.prompt_ids)
                try:
                    handle = replica.supervisor.submit(
                        request.prompt_ids, request.config,
                        request.processors, deadline_ms=remaining_ms)
                except _FAILOVER_ERRORS + (EngineQueueFullError,) as error:
                    # Stale health or a full queue: skip this replica
                    # and keep trying the rest of the affinity order.
                    _release(lease)
                    excluded.add(replica.name)
                    last_error = error
                    continue
                except BaseException:
                    _release(lease)
                    raise
                key = replica.track(handle, request.cost, lease)
            old_key = request._track_key
            if old_key is not None and request._attempt is not None:
                request._attempt.replica.untrack(old_key)
            request._attempt = _Attempt(replica, handle)
            request._track_key = key
            self._note_dispatch(replica)
            return

    def _failover(self, request: ClusterRequest, attempt: _Attempt,
                  error: BaseException) -> None:
        """Re-dispatch ``request`` after ``attempt``'s replica failed.

        Consumer-driven and idempotent: whichever of ``result()`` /
        ``tokens()`` observes the crash first re-dispatches; a racing
        consumer finds the attempt already replaced and simply retries
        it.  Raises ``error`` when the failover budget is spent, the
        request was cancelled, or no survivor can take it.
        """
        with request._lock:
            if request._attempt is not attempt:
                return  # a racing consumer already failed over
            if request._cancelled:
                raise error
            if request.failovers >= self.config.max_failovers:
                raise error
            request.failovers += 1
            self._note_failover(attempt.replica)
            try:
                self._dispatch(request, exclude={attempt.replica.name},
                               enforce_admission=False)
            except NoReplicaAvailableError:
                raise error

    # ------------------------------------------------------------------
    # Rolling operations
    # ------------------------------------------------------------------
    def drain(self, name: str, timeout: float = 30.0) -> float:
        """Stop new admissions to ``name`` and wait for in-flight work.

        Returns the wall-clock drain duration (also observed on the
        ``cluster_drain_seconds`` histogram).  Raises
        :class:`TimeoutError` if in-flight work outlives ``timeout`` —
        the replica stays draining so the operator can retry or kill.
        """
        replica = self._replica(name)
        replica.draining = True
        start = time.monotonic()
        while replica.outstanding() > 0:
            if time.monotonic() - start > timeout:
                raise TimeoutError(
                    f"drain of {name!r} timed out after {timeout}s with "
                    f"{replica.outstanding()} request(s) in flight")
            time.sleep(0.005)
        seconds = time.monotonic() - start
        self._metrics.drain_seconds.observe(seconds)
        return seconds

    def swap(self, name: str,
             engine_factory: Optional[Callable[[str], InferenceEngine]]
             = None, timeout: float = 5.0) -> None:
        """Replace a drained replica's engine (model/config upgrade).

        Requires a completed :meth:`drain` — swapping a replica with
        in-flight work would drop it, which the fleet's whole design
        refuses to do.  With ``engine_factory`` the replica is rebuilt
        from the new factory (and future restarts use it too);
        without, the existing factory builds a fresh engine.
        """
        replica = self._replica(name)
        if not replica.draining:
            raise RuntimeError(f"swap requires drain: replica {name!r} is "
                               f"still admitting")
        if replica.outstanding() > 0:
            raise RuntimeError(f"swap requires an idle replica: {name!r} "
                               f"has in-flight work (drain first)")
        if engine_factory is not None:
            replica.factory = self._bind_factory(engine_factory, name)
        replica.supervisor.stop(timeout=timeout)
        replica.supervisor = self._build_supervisor(replica.factory, name)

    def readmit(self, name: str) -> None:
        """Return a drained replica to the placement rotation."""
        replica = self._replica(name)
        replica.draining = False

    def _replica(self, name: str) -> _Replica:
        try:
            return self._replicas[name]
        except KeyError:
            raise KeyError(f"unknown replica {name!r}; have "
                           f"{sorted(self._replicas)}") from None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return (not self._stop_event.is_set()
                and any(replica.state in ("healthy", "degraded")
                        for replica in self._replicas.values()))

    def replica_names(self) -> List[str]:
        return list(self._replicas)

    def weight_bytes(self) -> Dict[str, Any]:
        """Fleet weight-memory accounting, deduplicated by array identity.

        Replicas attached to one shared
        :class:`~repro.nn.kernels.WeightStore` (or one shared model)
        reference the same ndarrays, so ``unique_bytes`` stays ~1x the
        model size regardless of replica count — the invariant the
        shared-weight kernels exist to provide.  Isolated per-replica
        models show up as ~N x.  Quantized (int8) copies are counted
        once per store alongside the fp32 arrays they derive from.
        """
        unique: Dict[int, int] = {}
        models: Dict[int, Any] = {}
        for replica in self._replicas.values():
            model = replica.supervisor.engine.model
            models[id(model)] = model
        for model in models.values():
            for param in model.parameters():
                unique[id(param.data)] = param.data.nbytes
            kernels = getattr(model, "kernels", None)
            if kernels is not None:
                for arr in kernels.store.all_arrays():
                    unique[id(arr)] = arr.nbytes
        return {
            "replicas": len(self._replicas),
            "model_copies": len(models),
            "unique_bytes": sum(unique.values()),
        }

    def fleet_health(self) -> Dict[str, Any]:
        """Aggregate fleet state for ``/api/health``.

        ``status`` is the worst replica state — ``"ok"`` when every
        replica is healthy, matching the single-engine payload.
        """
        states = [replica.state for replica in self._replicas.values()]
        worst = max(states, key=_SEVERITY.index)
        return {
            "replicas": len(states),
            "healthy": states.count("healthy"),
            "draining": states.count("draining"),
            "status": "ok" if worst == "healthy" else worst,
        }

    def _cache_tier_snapshot(self) -> Dict[str, float]:
        """Aggregate fleet hit-token accounting; refreshes the gauge.

        Each replica contributes one atomic ``stats_snapshot`` taken
        under that cache's lock, so a replica's numerator and
        denominator are never torn; the cross-replica sum is then a
        consistent-enough rollup for the
        ``cluster_cache_hit_token_rate`` gauge.
        """
        hit_tokens = 0.0
        lookup_tokens = 0.0
        for replica in self._replicas.values():
            cache = self._cache_of(replica)
            if cache is None:
                continue
            snap = cache.stats_snapshot()
            hit_tokens += snap["hit_tokens"]
            lookup_tokens += snap["lookup_tokens"]
        rate = (hit_tokens / lookup_tokens) if lookup_tokens else 0.0
        self._metrics.cache_hit_token_rate.set(rate)
        return {"hit_tokens": hit_tokens, "lookup_tokens": lookup_tokens,
                "hit_token_rate": rate}

    def stats(self) -> Dict[str, Any]:
        """Point-in-time fleet stats (for ``/api/cluster`` and the CLI)."""
        hits = self._metrics.affinity_hits.value
        spills = self._metrics.affinity_spills.value
        lookups = hits + spills
        replicas = {}
        for name, replica in self._replicas.items():
            supervisor = replica.supervisor
            replicas[name] = {
                "state": replica.state,
                "draining": replica.draining,
                "queued_tokens": replica.queued_tokens(),
                "outstanding": replica.outstanding(),
                "dispatches": replica.dispatches,
                "failovers": replica.failovers,
                "supervisor": {
                    "state": supervisor.state,
                    "restarts": supervisor.restarts,
                },
                "prefix_cache": supervisor.prefix_cache.stats_snapshot(),
            }
        return {
            "replicas": replicas,
            "fleet": self.fleet_health(),
            "weights": self.weight_bytes(),
            "affinity": {
                "affinity_tokens": self.config.affinity_tokens,
                "hits": hits,
                "spills": spills,
                "hit_rate": (hits / lookups) if lookups else 0.0,
            },
            "placement": {
                "reasons": {
                    reason: self._metrics.placement.labels(
                        reason=reason).value
                    for reason in ("affinity", "cache", "spill", "fallback")},
                "spill_total": self._metrics.spill_total.value,
            },
            "cache_tier": {
                "enabled": self.fleet_index is not None,
                "borrow": (self.config.borrow
                           and self.fleet_index is not None),
                **self._cache_tier_snapshot(),
                "borrows": sum(child.value for _, child
                               in self._metrics.borrows.series()),
                "borrow_tokens": self._metrics.borrow_tokens.value,
                "index": (self.fleet_index.stats()
                          if self.fleet_index is not None else None),
            },
            "admission": self.admission.stats(),
        }

    def engine_stats(self) -> Dict[str, Any]:
        """Per-replica engine + supervisor stats (for ``/api/engine``)."""
        return {"replicas": {name: replica.supervisor.stats()
                             for name, replica in self._replicas.items()}}

    def resilience_stats(self) -> Dict[str, Any]:
        """Failure-envelope stats (for ``/api/resilience``): the fleet
        admission gate, the degraded fallback, and each replica's
        supervisor."""
        return {
            "admission": self.admission.stats(),
            "degraded_fallback": self.fallback is not None,
            "degraded_total": self._metrics.degraded.value,
            "replicas": {
                name: {"state": replica.supervisor.state,
                       "restarts": replica.supervisor.restarts,
                       "max_restarts": replica.supervisor.max_restarts,
                       "queued_tokens": replica.queued_tokens()}
                for name, replica in self._replicas.items()},
        }

    # ------------------------------------------------------------------
    # Heartbeats + lifecycle
    # ------------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop_event.wait(self.config.heartbeat_seconds):
            self._observe_health()

    def _observe_health(self) -> None:
        healthy = draining = 0
        for name, replica in self._replicas.items():
            state = replica.state
            healthy += state == "healthy"
            draining += state == "draining"
            if state == "dead" and self.fleet_index is not None:
                self.fleet_index.drop_replica(name)
            self._metrics.replica_up.labels(replica=name).set(
                1 if state == "healthy" else 0)
            self._metrics.queued_tokens.labels(replica=name).set(
                replica.queued_tokens())
        self._metrics.healthy.set(healthy)
        self._metrics.draining.set(draining)
        self._cache_tier_snapshot()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the heartbeat and every replica's supervisor + engine.

        With a spill configured, :attr:`last_spill_saved` records
        whether *any* replica actually wrote a warm snapshot during
        this stop (``None`` when no spill is configured), so shutdown
        summaries report the real outcome rather than the config.
        """
        self._stop_event.set()
        self._heartbeat.join(timeout=timeout)
        for replica in self._replicas.values():
            replica.supervisor.stop(timeout=timeout)
        if self.spill is not None and self.last_spill_saved is None:
            self.last_spill_saved = any(
                replica.supervisor.last_spill_saved is True
                for replica in self._replicas.values())
        self._observe_health()

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
