"""Continuous-batching inference engine with prefix KV-cache reuse.

One background thread owns the model and runs a step loop:

1. **Admit** — move queued requests into the in-flight set (up to
   ``max_batch_size``), prefilling each prompt in position-aligned
   chunks — batched across same-shape prompts — and reusing
   prefix-cache snapshots where the prompt shares a stored prefix
   (see :mod:`.prefix_cache`).
2. **Sample** — every active sequence picks its next token with the
   *same* :func:`repro.models.select_next_token` the sequential
   :func:`repro.models.generate` loop uses, driven by its own
   per-request ``default_rng(config.seed)`` and processor chain.
3. **Retire** — sequences that hit their stop token or token budget
   leave the batch mid-flight; their slot is refilled on the next
   admit pass.
4. **Forward** — survivors are grouped by
   :meth:`~repro.models.base.LanguageModel.stacking_key`; groups stack
   their KV caches into one batched ``next_logits`` call, ungroupable
   states (``key is None``, e.g. the LSTM) step one by one.

Equality contract: for any request, the engine's token stream is
**bit-identical** to ``models.generate(model, prompt, config)`` run
alone — regardless of what else shares the batch, and regardless of
prefix-cache hits.  The pieces that make that true: stacked transformer
decode is per-slice (row-stable) matmul; prefill chunking is aligned
to absolute positions; sampling state is per-request.  Property-tested
in ``tests/test_properties_serving.py``.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..models import (DraftModel, GenerationConfig, LanguageModel,
                      LogitsProcessor, PREFILL_CHUNK, SpeculativeMetrics,
                      build_processors, draft_context, generate as
                      sequential_generate, select_next_token,
                      speculative_walk)
from ..nn import no_grad
from ..obs import (MetricsRegistry, Tracer, get_registry, get_tracer)
from ..resilience.faults import fault_check
from .prefix_cache import PrefixCache


class EngineQueueFullError(RuntimeError):
    """Raised by :meth:`InferenceEngine.submit` when the queue is full."""


class EngineStoppedError(RuntimeError):
    """Raised when a request cannot complete because the engine stopped."""


class EngineCrashedError(RuntimeError):
    """The engine thread died; the request was failed, not completed.

    Raised to every request that was queued or in flight when the
    engine thread crashed (and by :meth:`InferenceEngine.submit` on a
    crashed engine).  A :class:`~repro.resilience.EngineSupervisor` can
    restart a crashed engine; requests are never silently replayed.
    """


class DeadlineExceededError(RuntimeError):
    """A request's ``deadline_ms`` budget expired before it finished.

    ``tokens`` holds whatever was generated before expiry — a prefix of
    the request's full decode, because deadline retirement uses the
    same mid-batch retirement path as stop tokens, which never perturbs
    other sequences.  The HTTP layer turns this into a partial result
    (some tokens) or a 504 (none).
    """

    def __init__(self, request_id: int, deadline_ms: float,
                 tokens: Sequence[int]) -> None:
        super().__init__(
            f"request {request_id} exceeded its {deadline_ms:.0f} ms "
            f"deadline after {len(tokens)} token(s)")
        self.request_id = request_id
        self.deadline_ms = deadline_ms
        self.tokens = list(tokens)


@dataclass(frozen=True)
class EngineConfig:
    """Serving knobs (independent of per-request decoding knobs)."""

    max_batch_size: int = 8
    prefill_chunk: int = PREFILL_CHUNK
    prefix_cache_bytes: int = 32 * 1024 * 1024
    max_queue: int = 64

    def validate(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.prefill_chunk < 1:
            raise ValueError("prefill_chunk must be >= 1")
        if self.prefix_cache_bytes < 0:
            raise ValueError("prefix_cache_bytes must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")


_WAKE = object()  # queue sentinel: stop() nudges a blocked _admit awake


class EngineRequest:
    """Per-request handle: a streaming token iterator plus a final result.

    Token delivery is a plain list append (atomic under the GIL); the
    engine only takes the condition lock when a streaming consumer is
    actually waiting, so the common ``result()``-only path costs no
    synchronization per token.
    """

    def __init__(self, request_id: int, prompt_ids: List[int],
                 config: GenerationConfig,
                 processors: Sequence[LogitsProcessor],
                 submitted_at: float,
                 deadline: Optional[float] = None,
                 deadline_ms: Optional[float] = None,
                 strategy_label: str = "plain") -> None:
        self.request_id = request_id
        self.prompt_ids = prompt_ids
        self.config = config
        self.processors = processors
        self.submitted_at = submitted_at
        #: Decode-mode metric label (``plain``/``speculative``/``mcts``),
        #: fixed at submit time; bounded cardinality by construction.
        self.strategy_label = strategy_label
        #: Absolute expiry on the engine's metrics clock (None = no deadline).
        self.deadline = deadline
        #: The original relative budget, kept for error messages.
        self.deadline_ms = deadline_ms
        self._done = threading.Event()
        self._cancelled = threading.Event()
        self._generated: List[int] = []
        self._error: Optional[BaseException] = None
        self._cond = threading.Condition()
        self._waiters = 0
        self._finish_lock = threading.Lock()

    # -- engine side ---------------------------------------------------
    def _deliver(self, token: int) -> None:
        self._generated.append(token)
        if self._waiters:
            with self._cond:
                self._cond.notify_all()

    def _finish(self, error: Optional[BaseException] = None) -> bool:
        """Resolve the request once; later calls are no-ops.

        Returns whether *this* call did the resolving — the engine only
        counts outcome metrics for the winning call, so a request that
        e.g. crashes while already deadline-failed is counted once.
        """
        with self._finish_lock:
            if self._done.is_set():
                return False
            self._error = error
            self._done.set()
        if self._waiters:
            with self._cond:
                self._cond.notify_all()
        return True

    # -- caller side ---------------------------------------------------
    def cancel(self) -> None:
        """Ask the engine to stop decoding this request.

        Safe from any thread and idempotent.  The engine drops the
        request at its next admit/step pass and finishes it with the
        tokens produced so far (no error), freeing its batch slot for
        other requests — the fate of e.g. a streaming client that
        disconnected mid-generation.  No-op once the request is done.
        """
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def tokens(self, timeout: Optional[float] = None) -> Iterator[int]:
        """Yield generated token ids as they are produced.

        ``timeout`` bounds the *total* wait for each individual token
        against a monotonic deadline — spurious condition-variable
        wakeups do not reset the budget.  On engine failure the stored
        error is raised.
        """
        index = 0
        while True:
            if index < len(self._generated):
                token = self._generated[index]
                index += 1
                yield token
                continue
            if self._done.is_set():
                if index < len(self._generated):
                    continue  # tokens landed while we checked
                if self._error is not None:
                    raise self._error
                return
            wait_deadline = (None if timeout is None
                             else time.monotonic() + timeout)
            with self._cond:
                self._waiters += 1
                try:
                    while (index >= len(self._generated)
                           and not self._done.is_set()):
                        if wait_deadline is None:
                            self._cond.wait()
                            continue
                        remaining = wait_deadline - time.monotonic()
                        if remaining <= 0:
                            raise TimeoutError(
                                f"request {self.request_id}: no token "
                                f"within {timeout}s")
                        self._cond.wait(timeout=remaining)
                finally:
                    self._waiters -= 1

    def result(self, timeout: Optional[float] = None) -> List[int]:
        """Block until generation completes; returns the new token ids."""
        if not self._done.wait(timeout=timeout):
            raise TimeoutError(
                f"request {self.request_id} not finished within {timeout}s")
        if self._error is not None:
            raise self._error
        return list(self._generated)

    @property
    def done(self) -> bool:
        return self._done.is_set()


@dataclass
class _Sequence:
    """Engine-internal state for one in-flight request."""

    request: EngineRequest
    config: GenerationConfig
    processors: List[LogitsProcessor]
    rng: np.random.Generator
    state: Any = None
    logits: Optional[np.ndarray] = None
    generated: List[int] = field(default_factory=list)
    admitted_at: float = 0.0
    first_token_at: Optional[float] = None
    #: Draft tokens per verify step for this request (0 = plain decode).
    #: Dropped to 0 permanently if a verify chunk stops fitting the
    #: model's context window (the sequential path slides instead).
    spec_k: int = 0
    #: The draft model proposing for this request (engine default or a
    #: per-request instance from ``config.draft``).
    draft: Optional[DraftModel] = None
    #: Verify results awaiting their acceptance walk at the next step:
    #: ``(proposals, draft_dists, chunk_logits, states)`` where
    #: ``chunk_logits`` is ``(len(proposals) + 1, vocab)`` and
    #: ``states[t]`` resumes after accepting ``t`` proposals.
    spec_chunk: Optional[tuple] = None


def _state_nbytes(obj: Any, _seen: Optional[set] = None) -> int:
    """Recursive byte count of the numpy arrays reachable from ``obj``.

    Each distinct array object is counted once: decode states routinely
    alias one buffer from several handles (a stacked batch split into
    row views, speculative verify states at successive truncation
    depths of one KV buffer), and double-counting them would blow
    admission-control and prefix-cache byte budgets.  The ``id()``
    dedup also makes cyclic state graphs terminate, replacing the old
    fixed depth cap that silently under-counted deep nests.  Distinct
    array objects viewing one base buffer still count separately —
    this is object-level, not page-level, accounting.
    """
    if _seen is None:
        _seen = set()
    if obj is None or id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_state_nbytes(item, _seen) for item in obj)
    if isinstance(obj, dict):
        return sum(_state_nbytes(item, _seen) for item in obj.values())
    if hasattr(obj, "__dict__"):
        return _state_nbytes(vars(obj), _seen)
    return 0


class _EngineMetrics:
    """Engine metric handles, resolved once at construction.

    With ``name`` (a cluster replica), every engine series carries an
    ``engine=<name>`` label and the prefix-cache series a
    ``cache=<name>`` label, so fleet dashboards can tell the replicas'
    isolated caches apart instead of aggregating mixed counters.  A
    standalone engine (``name=None``) keeps the unlabeled series.
    """

    def __init__(self, registry: MetricsRegistry,
                 name: Optional[str] = None) -> None:
        self.clock = registry.clock
        engine_labels = {} if name is None else {"engine": name}
        cache_labels = {} if name is None else {"cache": name}
        self._outcome_labels = engine_labels
        self.requests = registry.counter(
            "engine_requests_total",
            help="Engine requests by final outcome and decode strategy")
        self._tokens_family = registry.counter(
            "engine_tokens_total",
            help="Tokens emitted by the serving engine, by decode "
                 "strategy")
        self.tokens = self._tokens_family.labels(strategy="plain",
                                                 **engine_labels)
        self.steps = registry.counter(
            "engine_steps_total",
            help="Batched decode steps executed").labels(**engine_labels)
        self.batch_occupancy = registry.histogram(
            "engine_batch_occupancy",
            help="Active sequences per decode step").labels(**engine_labels)
        self.active_sequences = registry.gauge(
            "engine_active_sequences",
            help="Sequences currently in the decode batch").labels(
                **engine_labels)
        self.queue_depth = registry.gauge(
            "engine_queue_depth",
            help="Requests waiting for admission").labels(**engine_labels)
        self.queue_wait_seconds = registry.histogram(
            "engine_queue_wait_seconds",
            help="Submit-to-admission wait per request").labels(
                **engine_labels)
        self.ttft_seconds = registry.histogram(
            "engine_ttft_seconds",
            help="Submit-to-first-token latency per request").labels(
                **engine_labels)
        self.cache_hits = registry.counter(
            "engine_prefix_cache_hits_total",
            help="Prefix-cache lookups that reused a snapshot").labels(
                **cache_labels)
        self.cache_misses = registry.counter(
            "engine_prefix_cache_misses_total",
            help="Prefix-cache lookups that found nothing").labels(
                **cache_labels)
        self.cache_evictions = registry.counter(
            "engine_prefix_cache_evictions_total",
            help="Snapshots evicted to stay under the byte budget").labels(
                **cache_labels)
        self.cache_hit_tokens = registry.counter(
            "engine_prefix_cache_hit_tokens_total",
            help="Prompt tokens skipped thanks to prefix-cache hits").labels(
                **cache_labels)
        self.cache_bytes = registry.gauge(
            "engine_prefix_cache_bytes",
            help="Bytes currently held by the prefix cache").labels(
                **cache_labels)
        self.cache_hit_rate = registry.gauge(
            "engine_prefix_cache_hit_rate",
            help="Lifetime prefix-cache hit rate").labels(**cache_labels)
        self.decode_forwards = registry.counter(
            "engine_decode_forwards_total",
            help="Model decode calls (batched next_logits or verify "
                 "chunks) — the denominator of tokens-per-forward").labels(
                **engine_labels)
        self.tokens_per_forward = registry.gauge(
            "engine_tokens_per_forward",
            help="Lifetime decode tokens emitted per model decode call "
                 "(1.0 without speculation; higher means the draft is "
                 "amortizing target forwards)").labels(**engine_labels)

    def outcome(self, outcome: str, strategy: str = "plain"):
        """The ``engine_requests_total`` child for one final outcome.

        ``strategy`` attributes the request to its decode mode —
        ``plain`` | ``speculative`` | ``mcts`` — so mixed-workload
        dashboards can split throughput.  The label set is computed at
        submit time from the request config (never client-supplied
        text), which bounds the cardinality to those three values.
        """
        return self.requests.labels(outcome=outcome, strategy=strategy,
                                    **self._outcome_labels)

    def tokens_for(self, strategy: str = "plain"):
        """The ``engine_tokens_total`` child for one decode strategy."""
        return self._tokens_family.labels(strategy=strategy,
                                          **self._outcome_labels)


class InferenceEngine:
    """Continuous-batching serving engine around one language model.

    The engine owns a background thread; the model must not be trained
    or mutated while the engine is running.  Use as a context manager
    or call :meth:`stop` explicitly.
    """

    def __init__(self, model: LanguageModel,
                 config: Optional[EngineConfig] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 draft: Optional[DraftModel] = None,
                 name: Optional[str] = None) -> None:
        self.config = config or EngineConfig()
        self.config.validate()
        self.model = model
        #: Replica name when this engine is one of a cluster fleet;
        #: labels every metric series (``engine=``/``cache=``) so
        #: per-replica counters stay separable.  ``None`` for a
        #: standalone engine keeps the unlabeled series.
        self.name = name
        #: Default draft model for requests with ``speculative_k > 0``;
        #: a request may override it with a DraftModel in
        #: ``config.draft``.  ``None`` disables speculation for
        #: requests that do not carry their own draft.
        self.draft = draft
        self.registry = registry if registry is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = _EngineMetrics(self.registry, name=name)
        self.spec_metrics = SpeculativeMetrics(self.registry, "engine")
        self._emitted_tokens = 0
        self._decode_forwards = 0
        self.prefix_cache = PrefixCache(self.config.prefix_cache_bytes,
                                        chunk_size=self.config.prefill_chunk)
        self._queue: "queue.Queue[EngineRequest]" = queue.Queue(
            maxsize=self.config.max_queue)
        self._active: List[_Sequence] = []
        # Requests popped from the queue but not yet active: a crash
        # mid-admission must be able to fail them, or they would hang.
        self._admitting: List[EngineRequest] = []
        # Stacked decode states from the previous step, keyed by group
        # membership — skips re-concatenating KV caches while a batch
        # is stable (see _forward).
        self._stacked_states: Dict[Tuple[int, ...], Any] = {}
        self._stop_event = threading.Event()
        self._crashed: Optional[BaseException] = None
        self._next_id = 0
        self._id_lock = threading.Lock()
        thread_name = ("repro-engine" if name is None
                       else f"repro-engine-{name}")
        self._thread = threading.Thread(target=self._run,
                                        name=thread_name, daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, prompt_ids: Sequence[int],
               config: Optional[GenerationConfig] = None,
               processors: Sequence[LogitsProcessor] = (),
               deadline_ms: Optional[float] = None) -> EngineRequest:
        """Enqueue a request; returns a streaming :class:`EngineRequest`.

        ``deadline_ms`` is a total latency budget from this call: a
        request still queued or decoding when it expires is retired
        with :class:`DeadlineExceededError` carrying the tokens
        generated so far (see ``docs/RESILIENCE.md``).

        Raises :class:`EngineQueueFullError` when ``max_queue`` requests
        are already waiting, :class:`EngineStoppedError` after
        :meth:`stop`, and :class:`EngineCrashedError` if the engine
        thread has died.  Beam search is not batched — use
        :meth:`generate`, which falls back to the sequential decoder.
        """
        self._check_serving()
        config = config or GenerationConfig()
        config.validate()
        if config.strategy == "beam":
            raise ValueError(
                "beam search is not continuously batched; use "
                "InferenceEngine.generate() for the sequential fallback")
        if config.strategy == "mcts":
            raise ValueError(
                "mcts is a search driver, not a batchable decode; run it "
                "through repro.decoding.MCTSDecoder, which submits its "
                "rollouts here")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 (or None)")
        prompt = [int(t) for t in prompt_ids]
        if not prompt:
            raise ValueError("prompt must contain at least one token")
        with self._id_lock:
            self._next_id += 1
            request_id = self._next_id
        now = self.metrics.clock.now()
        if getattr(config, "mcts_rollout", False):
            strategy_label = "mcts"
        elif config.speculative_k > 0 and (
                isinstance(config.draft, DraftModel) or self.draft is not None):
            strategy_label = "speculative"
        else:
            strategy_label = "plain"
        request = EngineRequest(
            request_id, prompt, config, list(processors), submitted_at=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1e3,
            deadline_ms=deadline_ms, strategy_label=strategy_label)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            raise EngineQueueFullError(
                f"engine queue is full ({self.config.max_queue} waiting)")
        if self._stop_event.is_set() or self._crashed is not None:
            # stop()'s drain (or a crash's fail_inflight) may have run
            # between the check at the top and the put above, in which
            # case nobody will ever pop this request — fail it here so
            # result() cannot block forever.
            error = (EngineCrashedError("engine thread has crashed")
                     if self._crashed is not None
                     else EngineStoppedError("engine has been stopped"))
            self._resolve(request, error=error)
            raise type(error)(str(error))
        self.metrics.queue_depth.set(self._queue.qsize())
        return request

    def _check_serving(self) -> None:
        if self._crashed is not None:
            raise EngineCrashedError(
                f"engine thread has crashed: {self._crashed!r}")
        if self._stop_event.is_set():
            raise EngineStoppedError("engine has been stopped")

    def generate(self, prompt_ids: Sequence[int],
                 config: Optional[GenerationConfig] = None,
                 processors: Sequence[LogitsProcessor] = (),
                 deadline_ms: Optional[float] = None) -> List[int]:
        """Synchronous façade: submit, wait, return the new token ids.

        Beam-search configs bypass the batch and run the sequential
        decoder (beam state is not continuously batchable; it also
        ignores ``deadline_ms``, since only the batched decode loop can
        retire requests mid-flight).
        """
        config = config or GenerationConfig()
        config.validate()
        if config.strategy == "beam":
            return sequential_generate(self.model, prompt_ids, config,
                                       processors, registry=self.registry,
                                       tracer=self.tracer)
        return self.submit(prompt_ids, config, processors,
                           deadline_ms=deadline_ms).result()

    def stop(self, timeout: float = 5.0) -> None:
        """Shut the engine thread down and fail all unfinished requests."""
        self._stop_event.set()
        try:
            self._queue.put_nowait(_WAKE)
        except queue.Full:
            pass  # queue has work, so the thread is not blocked idle
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread.is_alive() and not self._stop_event.is_set()

    @property
    def crashed(self) -> Optional[BaseException]:
        """The exception that killed the engine thread, if any."""
        return self._crashed

    def fail_inflight(self, error: BaseException) -> int:
        """Fail every queued and in-flight request with ``error``.

        Only meaningful once the engine thread is no longer serving (a
        crash or a hard kill); the supervisor calls this before
        restarting so no request can block forever on a dead engine.
        Idempotent — already-resolved requests are untouched.  Returns
        the number of requests failed by this call.
        """
        failed = 0
        for request in list(self._admitting):
            failed += self._resolve(request, error=error)
        self._admitting = []
        for seq in list(self._active):
            failed += self._resolve(seq.request, error=error)
        self._active = []
        self._stacked_states = {}
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is _WAKE:
                continue
            failed += self._resolve(request, error=error)
        self.metrics.active_sequences.set(0)
        self.metrics.queue_depth.set(0)
        return failed

    def stats(self) -> Dict[str, Any]:
        """Point-in-time engine stats (for the CLI and debug endpoints)."""
        kernels = getattr(self.model, "kernels", None)
        return {
            "running": self.running,
            "crashed": self._crashed is not None,
            "active_sequences": len(self._active),
            "queue_depth": self._queue.qsize(),
            "max_batch_size": self.config.max_batch_size,
            "prefix_cache": self.prefix_cache.stats_snapshot(),
            "kernels": None if kernels is None else kernels.stats(),
        }

    # ------------------------------------------------------------------
    # Engine thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            self.model.eval()
            kernels = getattr(self.model, "kernels", None)
            if kernels is not None:
                # Size this thread's workspace arenas for a full batch
                # of decode slots up front, so steady-state serving
                # never allocates (see docs/KERNELS.md).
                kernels.preallocate(self.config.max_batch_size,
                                    chunk=self.config.prefill_chunk)
            with no_grad():
                while not self._stop_event.is_set():
                    # One managed kernel step per scheduler iteration:
                    # flips the workspace parity, so logits views handed
                    # out during this iteration survive exactly until
                    # they are sampled at the next one.  Re-fetched each
                    # iteration because kernels may be enabled on a
                    # serving model at runtime.
                    kernels = getattr(self.model, "kernels", None)
                    if kernels is not None:
                        kernels.begin_step()
                    self._admit()
                    if not self._active:
                        continue
                    try:
                        self._step()
                    except BaseException as error:  # noqa: BLE001
                        # A step-level failure (e.g. a model.forward
                        # fault) takes down the requests sharing the
                        # batch — with a named error — but not the
                        # engine itself.
                        for seq in self._active:
                            self._finish(seq, error=error)
                        self._active = []
                        self._stacked_states = {}
        except BaseException as error:  # noqa: BLE001 - crash, not stop
            # Anything escaping the loop (e.g. a prefix_cache.get fault
            # during admission) is a crash: mark it, fail everything
            # in flight with a named error so no caller hangs, and let
            # the thread die.  A supervisor may build a replacement.
            self._crashed = error
            self.fail_inflight(EngineCrashedError(
                f"engine thread crashed: {error!r}"))
            return
        self._drain()

    def _admit(self) -> None:
        """Refill the batch from the queue; prefill newly admitted prompts."""
        block = not self._active
        admitted: List[_Sequence] = []
        while len(self._active) + len(admitted) < self.config.max_batch_size:
            try:
                if block:
                    request = self._queue.get(timeout=0.05)
                    block = False
                else:
                    request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is _WAKE:
                break
            self._admitting.append(request)
            if request.cancelled:
                self._resolve(request, outcome="cancelled")
                self._admitting.pop()
                continue
            now = self.metrics.clock.now()
            if request.deadline is not None and now >= request.deadline:
                # Expired while still queued: never admitted, no tokens.
                self._resolve(request, error=DeadlineExceededError(
                    request.request_id, request.deadline_ms, ()),
                    outcome="deadline")
                self._admitting.pop()
                continue
            self.metrics.queue_wait_seconds.observe(now - request.submitted_at)
            # Per-request draft instance wins; a draft *spec string* is
            # resolved by the serving layer, not here (the engine has
            # no corpus to fit one on) and falls back to the default.
            draft = (request.config.draft
                     if isinstance(request.config.draft, DraftModel)
                     else self.draft)
            admitted.append(_Sequence(
                request=request, config=request.config,
                processors=build_processors(request.config,
                                            request.processors),
                rng=np.random.default_rng(request.config.seed),
                admitted_at=now,
                spec_k=(request.config.speculative_k
                        if draft is not None else 0),
                draft=draft))
        if admitted:
            self._prefill_admitted(admitted)
        self._admitting = []
        self.metrics.queue_depth.set(self._queue.qsize())
        self.metrics.active_sequences.set(len(self._active))

    def _prefill_admitted(self, admitted: List[_Sequence]) -> None:
        """Prefill an admission wave, batching same-shape prompts.

        Rows whose prompts have equal length and equal cache-hit depth
        take identical chunk boundaries from identical positions, so
        they can share batched ``prefill_stacked`` trunk calls; the
        rest (and models without batched prefill) go one by one.
        Chunks end at absolute multiples of ``prefill_chunk`` — the
        same boundaries :func:`repro.models.prefill_prompt` uses — so a
        warm run replays exactly the trunk calls of a cold run and the
        logits match bit for bit.  Snapshots are stored at those same
        boundaries plus the full prompt, which keeps every stored
        depth *eligible* for future lookups (see
        :class:`~repro.serving.prefix_cache.PrefixCache`).

        Identical prompts in one wave (MCTS sibling rollouts) prefill
        once: only the first copy looks up and prefills, and the rest
        look up after it, so they are full cache hits — bit-identical,
        because a full hit issues no trunk calls at all.  With no cache
        budget nothing could be stored for them, so the copies stay in
        their leader's group and share its stacked prefill instead.
        """
        leaders: List[_Sequence] = []
        repeats: List[_Sequence] = []
        seen = set()
        share = self.prefix_cache.max_bytes > 0
        for seq in admitted:
            prompt = tuple(seq.request.prompt_ids)
            (repeats if share and prompt in seen else leaders).append(seq)
            seen.add(prompt)
        self._prefill_wave(leaders)
        if repeats:
            self._prefill_wave(repeats)
        cache_stats = self.prefix_cache.stats_snapshot()
        self.metrics.cache_evictions.inc(
            cache_stats["evictions"] - self.metrics.cache_evictions.value)
        self.metrics.cache_bytes.set(cache_stats["bytes"])
        self.metrics.cache_hit_rate.set(cache_stats["hit_rate"])

    def _prefill_wave(self, admitted: List[_Sequence]) -> None:
        """Look up, group and prefill ``admitted`` (see above)."""
        groups: Dict[Tuple[int, int], List[Tuple[_Sequence, Any, Any]]] = {}
        for seq in admitted:
            prompt = seq.request.prompt_ids
            # Chaos hook: a fault here escapes _admit and kills the
            # engine thread — the supervisor-restart scenario.
            fault_check("prefix_cache.get")
            hit_len, snapshot = self.prefix_cache.lookup(prompt)
            if hit_len:
                self.metrics.cache_hits.inc()
                self.metrics.cache_hit_tokens.inc(hit_len)
                logits, state = snapshot
            else:
                self.metrics.cache_misses.inc()
                logits, state = None, self.model.start_state(1)
            groups.setdefault((len(prompt), hit_len), []).append(
                (seq, logits, state))
        for (prompt_len, hit_len), members in groups.items():
            done = (len(members) > 1 and hit_len < prompt_len
                    and self._prefill_stacked(members, prompt_len, hit_len))
            if not done:
                for seq, logits, state in members:
                    try:
                        self._prefill_one(seq, logits, state, hit_len)
                    except BaseException as error:  # noqa: BLE001
                        self._finish(seq, error=error)
                        continue
                    self._active.append(seq)

    def _prefill_stacked(self, members: List[Tuple[_Sequence, Any, Any]],
                         prompt_len: int, hit_len: int) -> bool:
        """Try one batched prefill for an equal-shape admission group.

        Returns ``False`` (having activated nothing) when the model
        cannot batch these rows — callers then run the single-sequence
        path.  Bit-exactness is inherited from ``prefill_stacked``'s
        row-stability contract, so both paths produce the same logits.
        """
        states = [state for _, _, state in members]
        keys = {self.model.stacking_key(state) for state in states}
        if len(keys) != 1 or None in keys:
            return False
        chunk_size = self.config.prefill_chunk
        prompts = [seq.request.prompt_ids for seq, _, _ in members]
        try:
            stacked = self.model.stack_states(states)
            with ExitStack() as spans:
                for seq, _, _ in members:
                    spans.enter_context(self.tracer.span(
                        "engine.prefill",
                        request=seq.request.request_id,
                        tokens=prompt_len, cached_tokens=hit_len,
                        batched=len(members)))
                position = hit_len
                logits = None
                while position < prompt_len:
                    chunk_end = min(prompt_len,
                                    (position // chunk_size + 1) * chunk_size)
                    ids = np.asarray([p[position:chunk_end] for p in prompts])
                    logits, stacked = self.model.prefill_stacked(ids, stacked)
                    position = chunk_end
                    if chunk_end % chunk_size == 0 or chunk_end == prompt_len:
                        rows = self.model.split_states(stacked, len(members))
                        for row, prompt in enumerate(prompts):
                            # Compact copies, not row-view snapshots: a
                            # view would pin the whole stacked batch
                            # buffer while _state_nbytes counts one row,
                            # blowing the cache's byte budget silently.
                            snap = self.model.compact_state(rows[row])
                            row_logits = logits[row:row + 1].copy()
                            nbytes = _state_nbytes(snap) + row_logits.nbytes
                            self.prefix_cache.insert(
                                prompt[:chunk_end],
                                (row_logits, snap), nbytes)
        except (NotImplementedError, ValueError):
            return False
        rows = self.model.split_states(stacked, len(members))
        for row, (seq, _, _) in enumerate(members):
            seq.logits = logits[row]
            seq.state = rows[row]
            self._active.append(seq)
        return True

    def _prefill_one(self, seq: _Sequence, logits: Any, state: Any,
                     hit_len: int) -> None:
        """Chunked single-sequence prefill (resuming from a cache hit)."""
        fault_check("model.forward")
        prompt = seq.request.prompt_ids
        chunk_size = self.config.prefill_chunk
        with self.tracer.span("engine.prefill",
                              request=seq.request.request_id,
                              tokens=len(prompt), cached_tokens=hit_len):
            position = hit_len
            while position < len(prompt):
                chunk_end = min(len(prompt),
                                (position // chunk_size + 1) * chunk_size)
                logits, state = self.model.prefill(
                    np.asarray(prompt[position:chunk_end]), state)
                position = chunk_end
                if chunk_end % chunk_size == 0 or chunk_end == len(prompt):
                    # Compact copies: store (and account) only the live
                    # cache region — not the capacity buffer the
                    # in-flight sequence keeps appending into, nor the
                    # whole-chunk logits the last-position view pins.
                    snap = self.model.compact_state(state)
                    last_logits = logits.copy()
                    nbytes = _state_nbytes(snap) + last_logits.nbytes
                    self.prefix_cache.insert(
                        prompt[:chunk_end], (last_logits, snap), nbytes)
        seq.logits = logits[0]
        seq.state = state

    def _step(self) -> None:
        """One engine step: sample, deliver, retire, batched forward."""
        self.metrics.steps.inc()
        self.metrics.batch_occupancy.observe(len(self._active))
        now = self.metrics.clock.now()
        survivors: List[_Sequence] = []
        for seq in self._active:
            if seq.request.cancelled:
                # Abandoned (e.g. streaming client disconnected): free
                # the batch slot instead of decoding to the budget.
                self._finish(seq, outcome="cancelled")
                continue
            if (seq.request.deadline is not None
                    and now >= seq.request.deadline):
                # Expired mid-batch: retire with the partial tokens.
                # Same retirement path as a stop token, so survivors'
                # outputs are untouched (bit-identical — tested).
                self._finish(seq, error=DeadlineExceededError(
                    seq.request.request_id, seq.request.deadline_ms,
                    seq.generated), outcome="deadline")
                continue
            if seq.spec_chunk is not None:
                if self._walk_spec(seq):
                    continue  # finished (stop token or budget) mid-walk
                survivors.append(seq)
                continue
            token = select_next_token(seq.logits, seq.generated, seq.config,
                                      seq.processors, seq.rng)
            seq.generated.append(token)
            self._deliver(seq, token)
            stopped = (seq.config.stop_token_id is not None
                       and token == seq.config.stop_token_id)
            if stopped or len(seq.generated) >= seq.config.max_new_tokens:
                self._finish(seq)
            else:
                survivors.append(seq)
        self._forward(survivors)
        self._active = survivors
        self.metrics.active_sequences.set(len(self._active))

    def _deliver(self, seq: _Sequence, token: int) -> None:
        self._emitted_tokens += 1
        seq.request._deliver(token)
        if seq.first_token_at is None:
            seq.first_token_at = self.metrics.clock.now()
            self.metrics.ttft_seconds.observe(
                seq.first_token_at - seq.request.submitted_at)

    def _walk_spec(self, seq: _Sequence) -> bool:
        """Walk one sequence's pending verify result; True if finished.

        Runs the same :func:`repro.models.speculative_walk` the
        standalone speculative loop uses, against the same processor
        chain, history and rng — so a speculative engine request's
        token stream stays bit-identical to
        ``models.generate(..., draft=...)`` (and, for greedy decode,
        to plain sequential ``generate``) no matter what shares the
        batch.
        """
        proposals, dists, chunk_logits, states = seq.spec_chunk
        seq.spec_chunk = None
        outcome = speculative_walk(
            chunk_logits, proposals, dists, seq.generated, seq.config,
            seq.processors, seq.rng,
            on_token=lambda token: self._deliver(seq, token))
        self.spec_metrics.observe_verify(len(proposals), outcome.accepted,
                                         outcome.emitted)
        if outcome.done:
            self._finish(seq)
            return True
        seq.state = states[outcome.accepted]
        seq.logits = None  # refreshed by the next forward/verify
        return False

    def _forward(self, survivors: List[_Sequence]) -> None:
        """Advance survivors, batching same-key states.

        Non-speculative sequences advance one token via batched
        ``next_logits``; speculative sequences draft and run batched
        ``verify_chunk`` calls instead (:meth:`_forward_spec`).  Both
        kinds coexist in one batch — they simply land in different
        model calls, each bit-identical to its single-sequence
        equivalent.
        """
        if survivors:
            # Chaos hook: fails this step's batch (named error) while
            # the engine itself keeps serving.  Sits before both the
            # plain decode and the speculative verify calls, so a
            # fault injected here hits a verify step too.
            fault_check("model.forward")
        forwards_before = self._decode_forwards
        spec_seqs = [seq for seq in survivors if seq.spec_k > 0]
        groups: Dict[Any, List[_Sequence]] = {}
        singles: List[_Sequence] = []
        for seq in survivors:
            if seq.spec_k > 0:
                continue
            key = self.model.stacking_key(seq.state)
            if key is None:
                singles.append(seq)
            else:
                groups.setdefault(key, []).append(seq)
        new_stacked: Dict[Tuple[int, ...], Any] = {}
        for key, members in groups.items():
            if len(members) == 1:
                singles.extend(members)
                continue
            # Reuse last step's stacked state while the group is
            # stable: stack(split(x)) == x element-for-element, so this
            # skips a per-step cache concatenation without changing a
            # single bit of output.
            member_ids = tuple(id(seq) for seq in members)
            stacked = self._stacked_states.get(member_ids)
            if stacked is None:
                stacked = self.model.stack_states(
                    [s.state for s in members])
            logits, new_state = self.model.next_logits(
                np.asarray([s.generated[-1] for s in members]), stacked)
            self._decode_forwards += 1
            new_stacked[member_ids] = new_state
            states = self.model.split_states(new_state, len(members))
            for row, seq in enumerate(members):
                seq.logits = logits[row]
                seq.state = states[row]
        self._stacked_states = new_stacked
        for seq in singles:
            logits, state = self.model.next_logits(
                np.asarray([seq.generated[-1]]), seq.state)
            self._decode_forwards += 1
            seq.logits = logits[0]
            seq.state = state
        if spec_seqs:
            self._forward_spec(spec_seqs)
        if self._decode_forwards > forwards_before:
            self.metrics.decode_forwards.inc(
                self._decode_forwards - forwards_before)
            self.metrics.tokens_per_forward.set(
                self._emitted_tokens / self._decode_forwards)

    def _forward_spec(self, spec_seqs: List[_Sequence]) -> None:
        """Draft proposals and verify them in batched chunk forwards.

        Each sequence's chunk is ``[generated[-1]] + proposals`` —
        ``generated[-1]`` is the emitted-but-unverified token, exactly
        the token the plain path would feed ``next_logits``.  Chunks
        whose states share a stacking key *and* length run as one
        batched ``verify_chunk``; the per-position states come back as
        row views of one buffer, and each row only ever appends into
        its own slice, so divergent acceptance depths stay independent.
        A chunk that no longer fits the context window turns its
        sequences non-speculative for good (``spec_k = 0``) and
        advances them on the plain sliding-window path — the exact
        fallback the standalone loop takes.
        """
        plans: Dict[int, Tuple[List[int], Optional[np.ndarray]]] = {}
        groups: Dict[Any, List[_Sequence]] = {}
        for seq in spec_seqs:
            remaining = seq.config.max_new_tokens - len(seq.generated)
            k = min(seq.spec_k, remaining - 1) if remaining > 1 else 0
            dists = None
            if k > 0:
                context = draft_context(seq.draft, seq.request.prompt_ids,
                                        seq.generated)
                if seq.config.strategy == "sample":
                    proposals, dists = seq.draft.propose_sampled(
                        context, k, seq.rng)
                else:
                    proposals = seq.draft.propose(context, k)
            else:
                proposals = []
            plans[id(seq)] = (list(proposals), dists)
            key = self.model.stacking_key(seq.state)
            group_key = (None if key is None
                         else (key, len(proposals)))
            if group_key is None:
                groups.setdefault(("single", id(seq)), []).append(seq)
            else:
                groups.setdefault(group_key, []).append(seq)
        for members in groups.values():
            proposals_rows = [plans[id(seq)][0] for seq in members]
            chunk = np.asarray(
                [[seq.generated[-1]] + proposals_rows[row]
                 for row, seq in enumerate(members)])
            try:
                if len(members) == 1:
                    seq = members[0]
                    chunk_logits, states = self.model.verify_chunk(
                        chunk, seq.state)
                    self._decode_forwards += 1
                    seq.spec_chunk = (proposals_rows[0], plans[id(seq)][1],
                                      chunk_logits[0], states)
                else:
                    stacked = self.model.stack_states(
                        [seq.state for seq in members])
                    chunk_logits, states = self.model.verify_chunk(
                        chunk, stacked)
                    self._decode_forwards += 1
                    position_rows = [
                        self.model.split_states(st, len(members))
                        for st in states]
                    for row, seq in enumerate(members):
                        seq.spec_chunk = (
                            proposals_rows[row], plans[id(seq)][1],
                            chunk_logits[row],
                            [rows[row] for rows in position_rows])
            except ValueError:
                # Context window exhausted: speculation is over for
                # these sequences; take the plain (sliding) step the
                # sequential reference takes.
                for seq in members:
                    seq.spec_k = 0
                    seq.spec_chunk = None
                    logits, state = self.model.next_logits(
                        np.asarray([seq.generated[-1]]), seq.state)
                    self._decode_forwards += 1
                    seq.logits = logits[0]
                    seq.state = state

    def _resolve(self, request: EngineRequest,
                 error: Optional[BaseException] = None,
                 outcome: Optional[str] = None, tokens: int = 0) -> bool:
        """Finish ``request`` exactly once, with outcome accounting."""
        if not request._finish(error=error):
            return False
        if outcome is None:
            outcome = "failed" if error is not None else "completed"
        self.metrics.outcome(outcome, request.strategy_label).inc()
        if error is None:
            self.metrics.tokens_for(request.strategy_label).inc(tokens)
        return True

    def _finish(self, seq: _Sequence,
                error: Optional[BaseException] = None,
                outcome: Optional[str] = None) -> None:
        self._resolve(seq.request, error=error, outcome=outcome,
                      tokens=len(seq.generated))

    def _drain(self) -> None:
        """Fail everything still queued or in flight after stop()."""
        error = EngineStoppedError("engine stopped before request completed")
        for seq in self._active:
            self._finish(seq, error=error)
        self._active = []
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is _WAKE:
                continue
            self._resolve(request, error=error)
        self.metrics.active_sequences.set(0)
        self.metrics.queue_depth.set(0)
