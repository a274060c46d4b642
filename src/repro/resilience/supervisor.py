"""Engine supervision: a watchdog that survives a dead engine thread.

The serving engine owns one background thread; before this module, an
exception escaping that thread's loop (a poisoned prefix-cache entry, a
model bug, an injected fault) killed it silently — queued requests and
their HTTP handlers then blocked forever.  :class:`EngineSupervisor`
closes that hole:

1. **detect** — a watchdog polls the engine thread; a death without a
   clean :meth:`~repro.serving.InferenceEngine.stop` is a crash;
2. **fail fast** — every queued and in-flight request is resolved with
   a named :class:`~repro.serving.EngineCrashedError` (never a hang);
3. **restart** — a fresh engine (fresh prefix cache — the crash may
   have been a poisoned snapshot) is built from the factory, with
   exponential backoff, at most ``max_restarts`` times.

Each replica of a :class:`~repro.cluster.Router` fleet is one
supervised engine.  While no engine is serving (mid-backoff, or
restarts exhausted) the supervisor raises
:class:`EngineUnavailableError`; degrading to the sequential decoder
(:func:`sequential_fallback`, ``"degraded": true`` upstream) is the
router's job, once no replica at all can serve.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..models import GenerationConfig, LanguageModel, LogitsProcessor
from ..models import generate as sequential_generate
from ..obs import (MetricsRegistry, NullRegistry, NullTracer, get_registry)
from ..serving.engine import EngineCrashedError, EngineRequest, InferenceEngine

Fallback = Callable[[Sequence[int], GenerationConfig,
                     Sequence[LogitsProcessor]], List[int]]


class EngineUnavailableError(RuntimeError):
    """No engine is currently serving (restarting, failed or stopped)."""


def sequential_fallback(model: LanguageModel) -> Fallback:
    """Degraded-mode decoder: the plain sequential generate loop.

    The engine crashing is a *serving-layer* failure — the model
    weights are still sound — so the cheapest useful fallback is the
    unbatched in-process decoder (one request at a time, no prefix
    cache, no instrumentation).  Correct but slow: exactly what
    "degraded" should mean.
    """

    def run(prompt_ids: Sequence[int], config: GenerationConfig,
            processors: Sequence[LogitsProcessor] = ()) -> List[int]:
        return sequential_generate(model, prompt_ids, config, processors,
                                   registry=NullRegistry(),
                                   tracer=NullTracer())

    return run


class EngineSupervisor:
    """Watchdog + restart policy around a replaceable inference engine.

    Parameters
    ----------
    factory:
        Zero-argument callable building a fresh
        :class:`~repro.serving.InferenceEngine`.  Called once at
        construction and once per restart — each call gets a brand-new
        prefix cache by construction.
    max_restarts:
        Restart budget.  Once spent, the supervisor stops replacing
        engines and every call raises :class:`EngineUnavailableError`.
    backoff_seconds / backoff_multiplier:
        Restart ``n`` (1-based) waits ``backoff_seconds *
        backoff_multiplier ** (n - 1)`` before building the new engine.
    poll_seconds:
        Watchdog check interval.
    spill:
        Optional :class:`~repro.durability.CacheSpill`-shaped object
        (``load_into(cache)`` / ``save(cache)``).  When set, every
        engine the supervisor builds — the first one and each restart
        replacement — is warm-loaded from the spill, and a clean
        :meth:`stop` of a *serving* engine snapshots its cache first
        so the next supervisor starts warm.  A crashed engine's cache
        is never saved: the crash may have been a poisoned snapshot.
    """

    def __init__(self, factory: Callable[[], InferenceEngine],
                 max_restarts: int = 3,
                 backoff_seconds: float = 0.05,
                 backoff_multiplier: float = 2.0,
                 poll_seconds: float = 0.02,
                 registry: Optional[MetricsRegistry] = None,
                 spill: Optional[Any] = None) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if backoff_seconds < 0 or backoff_multiplier < 1.0:
            raise ValueError("backoff_seconds must be >= 0 and "
                             "backoff_multiplier >= 1")
        self._factory = factory
        self.max_restarts = max_restarts
        self.backoff_seconds = backoff_seconds
        self.backoff_multiplier = backoff_multiplier
        self.poll_seconds = poll_seconds
        self.spill = spill
        #: Outcome of the spill attempt made by :meth:`stop`: ``True``
        #: once a snapshot was written, ``False`` when a configured
        #: spill did not produce one (save failed, or the engine was
        #: crashed/stopped), ``None`` when no spill is configured or
        #: ``stop`` has not run.  Shutdown summaries read this instead
        #: of guessing from configuration.
        self.last_spill_saved: Optional[bool] = None
        registry = registry if registry is not None else get_registry()
        self._restarts_total = registry.counter(
            "engine_restarts_total",
            help="Engine restarts performed by the supervisor")
        self._crashes_total = registry.counter(
            "engine_crashes_total",
            help="Engine thread deaths detected by the supervisor")
        self._up_gauge = registry.gauge(
            "engine_supervisor_up",
            help="1 while a live engine is serving, 0 otherwise")
        self._lock = threading.Lock()
        self._restarts = 0
        self._state = "serving"  # serving | restarting | failed | stopped
        self._engine = factory()
        self._warm_reload(self._engine)
        self._up_gauge.set(1)
        self._stop_event = threading.Event()
        self._thread = threading.Thread(target=self._watch,
                                        name="repro-engine-supervisor",
                                        daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> InferenceEngine:
        """The current engine (replaced across restarts)."""
        return self._engine

    @property
    def state(self) -> str:
        return self._state

    @property
    def restarts(self) -> int:
        """How many replacement engines have been built."""
        return self._restarts

    @property
    def prefix_cache(self):
        return self._engine.prefix_cache

    def stats(self) -> Dict[str, Any]:
        stats = self._engine.stats()
        stats["supervisor"] = {
            "state": self._state,
            "restarts": self._restarts,
            "max_restarts": self.max_restarts,
        }
        return stats

    # ------------------------------------------------------------------
    # Serving surface (mirrors InferenceEngine)
    # ------------------------------------------------------------------
    def submit(self, prompt_ids: Sequence[int],
               config: Optional[GenerationConfig] = None,
               processors: Sequence[LogitsProcessor] = (),
               deadline_ms: Optional[float] = None) -> EngineRequest:
        """Submit to the current engine.

        Raises :class:`EngineUnavailableError` while no engine is
        serving.
        """
        return self._serving_engine().submit(prompt_ids, config, processors,
                                             deadline_ms=deadline_ms)

    def generate(self, prompt_ids: Sequence[int],
                 config: Optional[GenerationConfig] = None,
                 processors: Sequence[LogitsProcessor] = (),
                 deadline_ms: Optional[float] = None) -> List[int]:
        """Synchronous generation on the current engine (beam included).

        Raises :class:`EngineUnavailableError` while no engine is
        serving; a crash mid-request surfaces as the engine's
        :class:`~repro.serving.EngineCrashedError`.
        """
        return self._serving_engine().generate(prompt_ids, config,
                                               processors,
                                               deadline_ms=deadline_ms)

    def _serving_engine(self) -> InferenceEngine:
        engine, state = self._engine, self._state
        if state != "serving":
            raise EngineUnavailableError(
                f"engine is not serving (supervisor state: {state})")
        return engine

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the watchdog and the current engine.

        When a spill is configured and the engine is being stopped
        *cleanly* (it was serving, not crashed or failed), its prefix
        cache is snapshotted first so the next supervisor — a process
        restart or a cluster swap — starts warm.  Spill failure is
        logged into the fault machinery by the spill itself and never
        blocks shutdown; the real outcome lands in
        :attr:`last_spill_saved` for shutdown summaries.
        """
        self._stop_event.set()
        with self._lock:
            was_serving = self._state == "serving"
            self._state = "stopped"
        self._thread.join(timeout=timeout)
        if self.spill is not None and self.last_spill_saved is None:
            # First stop() decides the outcome; a repeated stop() must
            # not clobber a recorded success with False.
            self.last_spill_saved = False
            if was_serving and self._engine.crashed is None:
                try:
                    self.spill.save(self._engine.prefix_cache)
                    self.last_spill_saved = True
                except Exception:  # noqa: BLE001 - next start is cold
                    pass
        self._engine.stop(timeout=timeout)
        self._up_gauge.set(0)

    def _warm_reload(self, engine: InferenceEngine) -> None:
        """Best-effort warm load of a fresh engine's prefix cache."""
        if self.spill is None:
            return
        try:
            self.spill.load_into(engine.prefix_cache)
        except Exception:  # noqa: BLE001 - corrupt spill => cold start
            pass

    def __enter__(self) -> "EngineSupervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Watchdog thread
    # ------------------------------------------------------------------
    def _watch(self) -> None:
        while not self._stop_event.wait(self.poll_seconds):
            engine = self._engine
            if engine._thread.is_alive():
                continue
            if self._stop_event.is_set():
                return
            if engine.crashed is None and engine._stop_event.is_set():
                continue  # clean external stop(); nothing to supervise
            self._handle_crash(engine)

    def _handle_crash(self, engine: InferenceEngine) -> None:
        self._crashes_total.inc()
        self._up_gauge.set(0)
        # Belt and braces: the engine fails its own in-flight work when
        # it crashes via an exception, but a hard-killed thread cannot —
        # fail_inflight is idempotent either way.
        engine.fail_inflight(EngineCrashedError(
            f"engine thread died: {engine.crashed!r}"))
        if self._restarts >= self.max_restarts:
            with self._lock:
                if self._state != "stopped":
                    self._state = "failed"
            return
        with self._lock:
            if self._state == "stopped":
                return
            self._state = "restarting"
        attempt = self._restarts + 1
        backoff = (self.backoff_seconds
                   * self.backoff_multiplier ** (attempt - 1))
        if self._stop_event.wait(backoff):
            return
        try:
            replacement = self._factory()
            self._warm_reload(replacement)
        except BaseException:  # noqa: BLE001 - factory itself failed
            # Burn the attempt; the watchdog will see the dead engine
            # again next poll and retry until the budget runs out.
            self._restarts = attempt
            return
        with self._lock:
            if self._state == "stopped":
                replacement.stop()
                return
            self._restarts = attempt
            self._engine = replacement
            self._state = "serving"
        self._restarts_total.inc()
        self._up_gauge.set(1)
