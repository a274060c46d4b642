"""The generation backend microservice (the paper's Flask service).

Endpoints:

* ``GET  /api/health``      — liveness + model info;
* ``GET  /api/ingredients`` — the catalog the frontend's picker lists;
* ``POST /api/generate``    — ingredients in, structured recipe out
  (Figs. 4–5 round trip);
* ``POST /api/suggest``     — flavor-pairing suggestions for a partial
  ingredient list (FlavorDB extension);
* ``POST /api/generate_async`` + ``GET /api/job?id=...`` — queued
  generation with backpressure (429 when the queue is full), the
  load-handling story of Sec. VI;
* ``POST /api/generate_stream`` — server-sent-events token streaming
  through the serving engine (``docs/SERVING.md``);
* ``POST /api/search`` — semantic search over the training corpus
  (``docs/RETRIEVAL.md``); requires ``retrieval_index``;
* ``GET /api/retrieval`` — index structure and recall stats;
* ``GET /api/engine`` — per-replica serving-engine and prefix-cache
  stats;
* ``GET /api/cluster`` / ``GET /api/resilience`` — fleet placement and
  failure-envelope stats;
* ``GET /api/metrics`` — the observability exposition (JSON by
  default, ``?format=text`` for the Prometheus-style form); see
  ``docs/OBSERVABILITY.md``.

Every decoding knob in a generation payload is validated server-side
(:meth:`~repro.models.GenerationConfig.validate` plus a
``max_new_tokens`` cap) and rejected with HTTP 400 before any model
work happens.
"""

from __future__ import annotations

import threading
import uuid
from typing import Dict, Optional

from ..cluster import ClusterConfig, NoReplicaAvailableError, Router
from ..core.pipeline import Ratatouille
from ..decoding import (MIN_BUDGET, apply_constraints_to_prompt,
                        build_constrained_processors, parse_constraints,
                        run_constrained_generation, violations)
from ..durability import FleetCacheSpill, JobJournal, JournalError
from ..models import GenerationConfig
from ..obs import (MetricsRegistry, Tracer, get_registry, get_tracer,
                   render_json, render_text)
from ..recipedb import IngredientCatalog, PairingGraph, default_catalog
from ..resilience import OverloadShedError, ResilienceConfig
from ..retrieval import query_from_ingredients
from ..resilience.supervisor import (EngineUnavailableError,
                                     sequential_fallback)
from ..serving import (DeadlineExceededError, EngineCrashedError,
                       EngineQueueFullError, EngineStoppedError,
                       InferenceEngine)
from .framework import App, Request, Response
from .jobs import JobQueue, QueueFullError

MAX_INGREDIENTS = 20

#: Server-side ceiling on requested generation length.  Client-supplied
#: ``max_new_tokens`` beyond this is a 400, not a silent clamp.
MAX_NEW_TOKENS_CAP = 512

#: Server-side ceiling on per-request ``speculative_k`` (draft tokens
#: per verify step).  Beyond ~16 the acceptance tail is empty and the
#: verify chunk just wastes work, so larger asks are a 400.
MAX_SPECULATIVE_K = 16

#: Server-side ceiling on per-request ``retrieve_k`` (RAG exemplars
#: prepended to the prompt).  Each exemplar is a full tagged recipe
#: (~100 tokens), so beyond a handful the prefix crowds out the decode
#: budget; larger asks are a 400.
MAX_RETRIEVE_K = 8

#: Server-side ceiling on per-request ``mcts_rollouts``.  Each rollout
#: is a full decode, so the admission probe prices MCTS requests at
#: ``max_new_tokens * (1 + mcts_rollouts)`` token-equivalents; the cap
#: bounds what one request may ask the gate for.  ``repro serve
#: --max-mcts-rollouts`` tunes it per deployment.
MAX_MCTS_ROLLOUTS = 64

#: Server-side ceiling on ``/api/search`` result count.
MAX_SEARCH_K = 50

#: Server-side ceiling on ``/api/search`` query length.
MAX_QUERY_CHARS = 2000

#: Admission cost (in token-equivalents) charged for one search.  A
#: search is two mat-vecs, far cheaper than decoding, but it must cost
#: *something* so a saturated server sheds search load too.
SEARCH_ADMISSION_COST = 16

_CONFIG_FIELDS = (
    ("max_new_tokens", int, 220),
    ("strategy", str, "sample"),
    ("temperature", float, 0.8),
    ("top_k", int, 20),
    ("top_p", float, 1.0),
    ("beam_size", int, 4),
    ("length_penalty", float, 0.7),
    ("repetition_penalty", float, 1.0),
    ("seed", int, 0),
    ("speculative_k", int, 0),
    ("mcts_rollouts", int, 12),
    ("mcts_c_puct", float, 1.4),
)


def _parse_generation_request(payload: dict,
                              max_new_tokens_cap: int = MAX_NEW_TOKENS_CAP,
                              default_speculative_k: int = 0,
                              catalog: Optional[IngredientCatalog] = None,
                              max_mcts_rollouts: int = MAX_MCTS_ROLLOUTS
                              ) -> tuple:
    """Validate a generation payload; returns (names, config, checklist).

    Raises :class:`ValueError` (→ HTTP 400) on anything malformed: a
    non-coercible knob, a value :meth:`GenerationConfig.validate`
    rejects, or a ``max_new_tokens`` beyond the server's cap.
    Constraint errors carry named codes (``unknown_diet:``,
    ``conflicting_constraints:``, ``diet_conflict:``,
    ``calories_exceeded:``, ``unknown_constraint:``) so clients can
    react without parsing prose.

    ``default_speculative_k`` is the server's speculative-decoding
    default (``repro serve --speculative``); a payload ``speculative_k``
    overrides it per request (``0`` opts out explicitly).

    A ``constraints`` object in the payload is parsed into
    :class:`~repro.decoding.Constraints`, ``include_ingredients`` are
    merged into the returned ``names`` (inclusion by construction), and
    conflicts are pre-checked here so an unsatisfiable request is a 400
    before any model work.
    """
    selected = payload.get("ingredients")
    if not isinstance(selected, list) or not selected:
        raise ValueError("'ingredients' must be a non-empty list")
    if len(selected) > MAX_INGREDIENTS:
        raise ValueError(f"at most {MAX_INGREDIENTS} ingredients supported")
    names = [str(name) for name in selected]
    values = {}
    for name, cast, default in _CONFIG_FIELDS:
        if name == "speculative_k":
            default = default_speculative_k
        raw = payload.get(name, default)
        try:
            values[name] = cast(raw)
        except (TypeError, ValueError):
            raise ValueError(
                f"'{name}' must be a {cast.__name__}, got {raw!r}") from None
    config = GenerationConfig(**values)
    config.validate()
    if config.max_new_tokens > max_new_tokens_cap:
        raise ValueError(
            f"max_new_tokens is capped at {max_new_tokens_cap} "
            f"(got {config.max_new_tokens})")
    if config.speculative_k > MAX_SPECULATIVE_K:
        raise ValueError(
            f"speculative_k is capped at {MAX_SPECULATIVE_K} "
            f"(got {config.speculative_k})")
    raw_constraints = payload.get("constraints")
    if raw_constraints is not None:
        constraints = parse_constraints(raw_constraints)
        if config.strategy == "beam":
            raise ValueError(
                "constrained decoding does not support beam search; "
                "use greedy, sample, or mcts")
        config.constraints = constraints
        names = apply_constraints_to_prompt(names, constraints, catalog,
                                            MAX_INGREDIENTS)
    if config.constraints is not None or config.strategy == "mcts":
        if config.max_new_tokens < MIN_BUDGET:
            raise ValueError(
                f"constrained decoding needs max_new_tokens >= "
                f"{MIN_BUDGET} to close the recipe grammar "
                f"(got {config.max_new_tokens})")
    if config.strategy == "mcts" and config.mcts_rollouts > max_mcts_rollouts:
        raise ValueError(
            f"mcts_rollouts is capped at {max_mcts_rollouts} "
            f"(got {config.mcts_rollouts})")
    return names, config, bool(payload.get("checklist", False))


def _admission_cost(config: GenerationConfig) -> int:
    """Token-equivalents one request may cost the serving fleet.

    The HTTP layer only *probes* the fleet gate with this; each decode
    is charged at dispatch.  MCTS decodes up to ``mcts_rollouts`` full
    rollouts plus the degraded-fallback decode, so the probe prices
    the whole tree, not one decode — otherwise a saturated server
    would start a search that costs 13x what the probe saw.
    """
    if config.strategy == "mcts":
        return config.max_new_tokens * (1 + config.mcts_rollouts)
    return config.max_new_tokens


def _parse_retrieve_k(payload: dict, default_k: int,
                      retrieval_enabled: bool) -> int:
    """Validate ``retrieve_k``; raises ValueError (→ HTTP 400).

    ``default_k`` is the server default (``repro serve --retrieve-k``);
    the payload overrides per request, ``0`` opting out explicitly.
    Asking for exemplars on a server with no index is a client error,
    not a silent no-op.
    """
    raw = payload.get("retrieve_k")
    if raw is None:
        return default_k if retrieval_enabled else 0
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"'retrieve_k' must be an integer, got {raw!r}")
    if raw < 0 or raw > MAX_RETRIEVE_K:
        raise ValueError(
            f"'retrieve_k' must be in [0, {MAX_RETRIEVE_K}] (got {raw})")
    if raw > 0 and not retrieval_enabled:
        raise ValueError(
            "retrieval is not enabled on this server "
            "(start with repro serve --retrieval)")
    return raw


def _parse_deadline(payload: dict,
                    default_ms: Optional[float]) -> Optional[float]:
    """Per-request deadline: ``deadline_ms`` in the payload, else the
    server default (``None`` disables).  Raises ValueError (→ 400) on a
    non-positive or non-numeric value."""
    raw = payload.get("deadline_ms")
    if raw is None:
        return default_ms
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"'deadline_ms' must be a number, got {raw!r}") from None
    if value <= 0:
        raise ValueError("'deadline_ms' must be > 0")
    return value


def _recipe_payload(recipe) -> dict:
    return {
        "title": recipe.title,
        "ingredients": recipe.ingredients,
        "instructions": recipe.instructions,
        "is_valid": recipe.is_valid,
        "ingredient_coverage": recipe.ingredient_coverage,
        "generation_seconds": recipe.generation_seconds,
    }


def _shed_response(exc: OverloadShedError) -> Response:
    return Response.error(str(exc), status=503,
                          headers={"Retry-After": str(exc.retry_after)})


#: Serving failures and the HTTP status each maps to.  A crashed
#: replica is 502, not 503: the response is deterministic, so an
#: idempotent resend (the client RetryPolicy does this) returns the
#: identical recipe — usually from a healthy replica.
_SERVING_ERRORS = (
    (DeadlineExceededError, 504),
    (EngineQueueFullError, 429),
    (EngineCrashedError, 502),
    ((EngineStoppedError, EngineUnavailableError, NoReplicaAvailableError),
     503),
)


def _serving_error_response(exc: Exception) -> Optional[Response]:
    """The HTTP answer for a serving-layer failure; ``None`` if unmapped."""
    if isinstance(exc, OverloadShedError):
        return _shed_response(exc)
    for kinds, status in _SERVING_ERRORS:
        if isinstance(exc, kinds):
            return Response.error(str(exc), status=status)
    return None


def create_backend(pipeline: Ratatouille,
                   catalog: Optional[IngredientCatalog] = None,
                   pairing: Optional[PairingGraph] = None,
                   job_queue: Optional[JobQueue] = None,
                   registry: Optional[MetricsRegistry] = None,
                   tracer: Optional[Tracer] = None,
                   engine: Optional[Router] = None,
                   max_new_tokens_cap: int = MAX_NEW_TOKENS_CAP,
                   resilience: Optional[ResilienceConfig] = None,
                   draft=None,
                   speculative_k: int = 0,
                   replicas: int = 1,
                   affinity_tokens: int = 32,
                   fleet_cache: bool = True,
                   publish_tokens: int = 128,
                   kernels: Optional[str] = None,
                   retrieval_index=None,
                   retrieve_k: int = 0,
                   journal_dir=None,
                   spill_dir=None,
                   max_mcts_rollouts: int = MAX_MCTS_ROLLOUTS) -> App:
    """Build the backend :class:`~repro.webapp.framework.App`.

    ``registry``/``tracer`` are what ``GET /api/metrics`` exposes and
    what the job queue and serving engine report into; they default to
    the process-wide instances.

    Generation always routes through a :class:`~repro.cluster.Router`
    fleet of ``replicas`` (default 1) supervised
    :class:`~repro.serving.InferenceEngine` replicas (continuous
    batching + prefix KV-cache reuse, watchdog restarts, see
    ``docs/CLUSTER.md``); the engines' outputs are bit-identical to the
    in-process decoder, so the topology is purely a throughput and
    availability choice.  A pre-built router can be passed as
    ``engine`` to share one across apps.  The router is stored as
    ``app.engine`` (and ``app.router``) so embedding code can stop it.

    ``resilience`` (see ``docs/RESILIENCE.md``) adds the failure
    envelope: request deadlines (``deadline_ms`` in payloads, plus a
    server default → partial result or 504), admission control (503 +
    ``Retry-After`` once every replica is past the watermark), each
    replica's restart budget, and the router's degraded sequential
    fallback (marked ``"degraded": true``) for blocking requests no
    replica can serve.  ``None`` — the default — keeps shedding and
    the fallback off.

    ``draft``/``speculative_k`` enable speculative decoding (see
    ``docs/SERVING.md``): ``draft`` is a
    :class:`~repro.models.DraftModel` or a spec string like
    ``"ngram:3"`` (fitted on the pipeline's training corpus via
    :meth:`Ratatouille.build_draft`); ``speculative_k`` is the server
    default draft length per verify step (payload ``speculative_k``
    overrides per request, ``0`` opts out).  Greedy requests stay
    bit-identical to the sequential decoder; sampled requests keep the
    model's distribution via rejection sampling.

    ``replicas > 1`` grows the fleet: isolated prefix caches,
    prefix-affinity placement over the first ``affinity_tokens``
    prompt ids, transparent bit-identical failover, and rolling
    drain/swap/readmit via ``app.router``.  The restart budget and
    shed watermark apply per replica; fleet admission sheds only when
    every replica is past watermark.

    ``fleet_cache`` (default on; it matters with ``replicas > 1``) adds the
    fleet-wide prefix-cache tier: each replica publishes its cached
    prefixes — capped at ``publish_tokens`` deep — into a shared
    :class:`~repro.cluster.FleetCacheIndex`, placement prefers the
    replica holding the longest published match, and diverted requests
    borrow the owner's frozen KV snapshot instead of recomputing
    prefill.  ``GET /api/cluster`` exposes the tier under
    ``cache_tier`` and placement-reason counters under ``placement``.

    ``kernels`` (``"fp32"`` or ``"int8"``, see ``docs/KERNELS.md``)
    routes decoding through the allocation-free inference kernels.
    The weights are frozen read-only and — because every replica
    serves the same model object — the whole fleet shares one weight
    copy.  ``"fp32"`` is bit-identical to the Tensor path; ``"int8"``
    trades a small perplexity delta for a smaller working set.

    ``retrieval_index`` (a :class:`~repro.retrieval.RecipeIndex`, see
    ``docs/RETRIEVAL.md``) enables the retrieval surface:
    ``POST /api/search``, retrieval-conditioned generation
    (``retrieve_k`` exemplars prepended to the prompt; ``retrieve_k``
    here is the server default, payloads override per request), and a
    nearest-corpus-neighbour ``novelty`` score attached to every
    generation response.  A faulted retrieval lookup *degrades* the
    request — un-conditioned generation plus
    ``"retrieval_degraded": true`` — it never fails it.  With
    ``retrieve_k=0`` (the default) generation output is bit-identical
    to a backend built without an index.

    ``journal_dir`` enables the write-ahead job journal (see
    ``docs/DURABILITY.md``): every ``POST /api/generate_async`` is
    fsync'd to disk *before* the 202 is returned, incomplete jobs are
    replayed through the engine on the next start, and completed
    results stay fetchable via ``GET /api/job`` across restarts.  The
    journal also backs ``Idempotency-Key`` deduplication: a retried
    submit with the same key maps to the already-journaled job instead
    of executing twice.

    ``spill_dir`` enables prefix-cache spill: each replica's KV prefix
    cache is snapshotted to ``<spill_dir>/<replica>/`` on clean stop
    and mmap-reloaded on the next start, so restarts and rolling swaps
    serve warm instead of re-prefilling every prompt.

    Both feed ``app.shutdown_gracefully(deadline_seconds)`` — stop
    admission (503 + ``Retry-After``), drain in-flight jobs under the
    deadline, flush journal and spill, stop the engine — which
    ``repro serve`` runs on SIGTERM/SIGINT.

    ``max_mcts_rollouts`` caps the per-request ``mcts_rollouts`` knob
    (``repro serve --max-mcts-rollouts``); see ``docs/DECODING.md`` for
    the constrained/search-guided decoding surface
    (``constraints`` / ``strategy: "mcts"`` in generation payloads).
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if max_mcts_rollouts < 1:
        raise ValueError("max_mcts_rollouts must be >= 1")
    if kernels is not None:
        pipeline.model.enable_kernels(mode=kernels, freeze=True)
    catalog = catalog or default_catalog()
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    jobs = job_queue or JobQueue(workers=1, max_pending=16, registry=registry)
    if isinstance(draft, str):
        spec = draft
        order = 3
        if ":" in spec:
            kind, _, suffix = spec.partition(":")
            order = int(suffix)
        else:
            kind = spec
        if kind != "ngram":
            raise ValueError(f"unknown draft spec {draft!r}")
        draft = pipeline.build_draft(order=order)
    if speculative_k < 0 or speculative_k > MAX_SPECULATIVE_K:
        raise ValueError(
            f"speculative_k must be in [0, {MAX_SPECULATIVE_K}]")
    if retrieve_k < 0 or retrieve_k > MAX_RETRIEVE_K:
        raise ValueError(f"retrieve_k must be in [0, {MAX_RETRIEVE_K}]")
    if retrieve_k > 0 and retrieval_index is None:
        raise ValueError("retrieve_k > 0 requires a retrieval_index")
    if engine is not None and not isinstance(engine, Router):
        raise TypeError(f"engine must be a repro.cluster.Router, got "
                        f"{type(engine).__name__}")
    resilience = resilience if resilience is not None else ResilienceConfig()
    journal = JobJournal(journal_dir) if journal_dir is not None else None
    router = engine
    if router is None:
        def _engine_factory(name: str) -> InferenceEngine:
            return InferenceEngine(pipeline.model, registry=registry,
                                   tracer=tracer, draft=draft, name=name)
        router = Router(
            _engine_factory,
            ClusterConfig(
                replicas=replicas,
                affinity_tokens=affinity_tokens,
                fleet_cache=fleet_cache,
                publish_tokens=publish_tokens,
                watermark_tokens=resilience.shed_watermark_tokens,
                tokens_per_second_hint=resilience.tokens_per_second_hint,
                max_restarts=resilience.max_restarts,
                restart_backoff_seconds=resilience.restart_backoff_seconds),
            registry=registry, tracer=tracer,
            spill=(FleetCacheSpill(spill_dir, model=pipeline.model)
                   if spill_dir is not None else None),
            fallback=(sequential_fallback(pipeline.model)
                      if resilience.degraded_fallback else None))
    default_deadline_ms = resilience.default_deadline_ms
    # With no draft fitted, a server-level speculative_k would silently
    # decode sequentially; zero it so /api/health tells the truth.
    default_speculative_k = speculative_k if draft is not None else 0
    default_retrieve_k = retrieve_k if retrieval_index is not None else 0
    retrieval_shed = None
    retrieval_degradations = None
    if retrieval_index is not None:
        retrieval_index.set_registry(registry)
        retrieval_shed = registry.counter(
            "retrieval_shed_total",
            help="Search requests shed by admission control")
        retrieval_degradations = registry.counter(
            "retrieval_degraded_total",
            help="Generations that degraded to un-conditioned output "
                 "because a retrieval lookup failed")
    app = App(name="ratatouille-backend")
    app.engine = router
    app.router = router
    app.retrieval_index = retrieval_index
    app.journal = journal
    app.spill = router.spill

    #: ``Idempotency-Key`` → ``{"job_id", "committed"}``.  A claim is
    #: provisional (``committed=False``) until the submit sticks
    #: (journal append + queue accept); only committed claims dedupe
    #: duplicate requests — a provisional claim can still roll back,
    #: and handing its job id to a duplicate would leave that client
    #: polling a job that never exists.  Seeded from the journal on
    #: replay (those submits stuck by definition).
    idempotency: Dict[str, dict] = {}
    idempotency_lock = threading.Lock()
    #: Completion snapshots restored from the journal — jobs that
    #: finished in a *previous* process but whose results must stay
    #: fetchable via ``GET /api/job``.
    restored: Dict[str, dict] = {}
    lifecycle = {"draining": False, "shutdown": None}

    def _admit(cost: int) -> Optional[Response]:
        """Probe admission; a Response means "shed, answer with this".

        The fleet gate itself runs inside the router's dispatch; here
        we only *probe* it, so an async job that would queue behind a
        saturated fleet sheds at submit time (503 + Retry-After)
        instead of failing later inside the job worker.

        A draining server (graceful shutdown in progress) refuses all
        new work the same way — 503 + ``Retry-After`` — so clients
        with the standard retry policy land on the replacement process.
        """
        if lifecycle["draining"]:
            return Response.error(
                "server is draining for shutdown", status=503,
                headers={"Retry-After": "1"})
        try:
            router.check_admission(cost)
        except OverloadShedError as exc:
            return _shed_response(exc)
        return None

    def _fetch_exemplars(names, count: int):
        """Retrieve RAG exemplar texts; returns ``(texts, degraded)``.

        Any retrieval failure — an injected fault included — degrades
        to un-conditioned generation (``(None, True)``); it never
        propagates, so a broken index cannot fail a generation request.
        """
        if count <= 0 or retrieval_index is None:
            return None, False
        try:
            hits = retrieval_index.search_ingredients(names, k=count)
            return [hit.text for hit in hits], False
        except Exception:  # noqa: BLE001 - degrade, never fail the request
            retrieval_degradations.inc()
            return None, True

    def _generation_payload(recipe, exemplars, retrieval_degraded: bool
                            ) -> dict:
        """Recipe payload plus the retrieval surface (payload-only:
        the novelty score and flags never alter the generation)."""
        payload = _recipe_payload(recipe)
        if retrieval_index is None:
            return payload
        try:
            payload["novelty"] = retrieval_index.novelty(
                recipe.raw_text).to_dict()
        except Exception:  # noqa: BLE001 - degrade, never fail the request
            retrieval_degradations.inc()
            retrieval_degraded = True
        payload["retrieved_k"] = len(exemplars) if exemplars else 0
        if retrieval_degraded:
            payload["retrieval_degraded"] = True
        return payload

    def _engine_submit(issued: list):
        """The decode callable constrained generation rolls out through.

        Dispatches without waiting, so an MCTS wave's rollouts reach
        the fleet back to back and decode concurrently.  Every request
        lands in ``issued`` so the payload can surface a router
        fallback (``degraded``).  The admission probe priced the whole
        search, so a decode dispatched while another of the same
        search is still in flight skips the watermark: a wave's first
        rollout is charged, and its siblings cannot shed their own
        tree.
        """
        def submit(prompt_ids, cfg, processors, submit_deadline_ms):
            request = router.submit_degradable(
                prompt_ids, cfg, processors, deadline_ms=submit_deadline_ms,
                admitted=any(sibling.in_flight for sibling in issued))
            issued.append(request)
            return request
        return submit

    def _run_constrained(names, config, checklist, deadline_ms,
                         allow_partial: bool, exemplars,
                         retrieval_degraded: bool) -> dict:
        """Grammar/constraint/MCTS decoding through the shared driver."""
        clock = registry.clock
        start = clock.now()
        issued: list = []
        try:
            prompt_text, new_ids, config, info = run_constrained_generation(
                pipeline, names, config, checklist=checklist,
                exemplars=exemplars, submit=_engine_submit(issued),
                catalog=catalog, retrieval_index=retrieval_index,
                registry=registry, deadline_ms=deadline_ms)
        except DeadlineExceededError as exc:
            if not (allow_partial and exc.tokens):
                raise
            # The driver raised before returning the prompt; re-derive
            # it (prepare_prompt is deterministic given the exemplars).
            prompt_text = pipeline.prepare_prompt(
                names, generation=config, checklist=checklist,
                exemplars=exemplars)[0]
            recipe = pipeline.finish_recipe(prompt_text, exc.tokens, names,
                                            elapsed=clock.now() - start)
            payload = _generation_payload(recipe, exemplars,
                                          retrieval_degraded)
            problems = violations(config.constraints, recipe.raw_text,
                                  catalog)
            payload["constraints_satisfied"] = not problems
            payload["partial"] = True
            payload["deadline_ms"] = exc.deadline_ms
            return payload
        recipe = pipeline.finish_recipe(prompt_text, new_ids, names,
                                        elapsed=clock.now() - start)
        payload = _generation_payload(recipe, exemplars, retrieval_degraded)
        payload.update(info)
        if any(request.degraded for request in issued):
            payload["degraded"] = True
        return payload

    def _run_generation(names, config, checklist, deadline_ms,
                        allow_partial: bool, retrieve_count: int = 0) -> dict:
        """Generate through the fleet.

        Returns the JSON payload; deadline expiry becomes either a
        partial recipe (``"partial": true``, when the client opted in
        and tokens exist) or re-raises for the 504 path.
        """
        exemplars, retrieval_degraded = _fetch_exemplars(names,
                                                         retrieve_count)
        if config.constraints is not None or config.strategy == "mcts":
            return _run_constrained(names, config, checklist, deadline_ms,
                                    allow_partial, exemplars,
                                    retrieval_degraded)
        prompt_text, prompt_ids, config, processors = pipeline.prepare_prompt(
            names, generation=config, checklist=checklist,
            exemplars=exemplars)
        clock = registry.clock
        start = clock.now()
        try:
            new_ids, degraded = router.generate_ex(
                prompt_ids, config, processors, deadline_ms=deadline_ms)
        except DeadlineExceededError as exc:
            if not (allow_partial and exc.tokens):
                raise
            recipe = pipeline.finish_recipe(prompt_text, exc.tokens, names,
                                            elapsed=clock.now() - start)
            payload = _generation_payload(recipe, exemplars,
                                          retrieval_degraded)
            payload["partial"] = True
            payload["deadline_ms"] = exc.deadline_ms
            return payload
        recipe = pipeline.finish_recipe(prompt_text, new_ids, names,
                                        elapsed=clock.now() - start)
        payload = _generation_payload(recipe, exemplars, retrieval_degraded)
        if degraded:
            payload["degraded"] = True
        return payload

    @app.route("/api/health")
    def health(request: Request) -> Response:
        fleet = router.fleet_health()
        return Response.json({
            "status": ("draining" if lifecycle["draining"]
                       else fleet["status"]),
            "lifecycle": ("draining" if lifecycle["draining"]
                          else "serving"),
            "replicas": fleet["replicas"],
            "healthy": fleet["healthy"],
            "draining": fleet["draining"],
            "model": type(pipeline.model).__name__,
            "parameters": pipeline.model.num_parameters(),
            "vocab_size": pipeline.tokenizer.vocab_size,
            "speculative": {
                "draft": type(draft).__name__ if draft is not None else None,
                "default_k": default_speculative_k,
            },
            "retrieval": {
                "enabled": retrieval_index is not None,
                "documents": (len(retrieval_index)
                              if retrieval_index is not None else 0),
                "default_k": default_retrieve_k,
            },
            "durability": {
                "journal": journal is not None,
                "spill": router.spill is not None,
            },
            "decoding": {
                "strategies": ["greedy", "sample", "beam", "mcts"],
                "max_mcts_rollouts": max_mcts_rollouts,
                "constraints": ["include_ingredients",
                                "exclude_ingredients", "diet",
                                "max_calories"],
            },
        })

    @app.route("/api/ingredients")
    def ingredients(request: Request) -> Response:
        category = request.query.get("category", [None])[0]
        if category:
            items = catalog.by_category(category)
        else:
            items = catalog.all()
        limit = int(request.query.get("limit", ["100"])[0])
        return Response.json({
            "ingredients": [
                {"name": item.name, "category": item.category}
                for item in items[:limit]
            ],
            "total": len(items),
        })

    @app.route("/api/generate", methods=("POST",))
    def generate_recipe(request: Request) -> Response:
        payload = request.json()
        names, config, checklist = _parse_generation_request(
            payload, max_new_tokens_cap, default_speculative_k,
            catalog=catalog, max_mcts_rollouts=max_mcts_rollouts)
        deadline_ms = _parse_deadline(payload, default_deadline_ms)
        retrieve_count = _parse_retrieve_k(payload, default_retrieve_k,
                                           retrieval_index is not None)
        allow_partial = bool(payload.get("partial", False))
        shed = _admit(_admission_cost(config))
        if shed is not None:
            return shed
        try:
            body = _run_generation(names, config, checklist, deadline_ms,
                                   allow_partial, retrieve_count)
        except Exception as exc:  # noqa: BLE001 - mapped or re-raised
            response = _serving_error_response(exc)
            if response is None:
                raise
            return response
        return Response.json(body)

    def _forget_idempotency(key: Optional[str], job_id: str) -> None:
        """Undo a provisional key claim when the submit did not stick."""
        if not key:
            return
        with idempotency_lock:
            claim = idempotency.get(key)
            if claim is not None and claim["job_id"] == job_id:
                del idempotency[key]

    def _commit_idempotency(key: Optional[str], job_id: str) -> None:
        """Publish the key → job mapping once the submit stuck."""
        if not key:
            return
        with idempotency_lock:
            claim = idempotency.get(key)
            if claim is not None and claim["job_id"] == job_id:
                claim["committed"] = True

    def _job_status_of(job_id: str) -> str:
        try:
            return jobs.get(job_id).status.value
        except KeyError:
            snap = restored.get(job_id)
            return snap["status"] if snap is not None else "pending"

    def _journal_completion(job_id: str, status: str, result=None,
                            error: Optional[str] = None) -> None:
        """Best-effort completion record; a dead disk must not take the
        job's actual result down with it (replay just re-executes)."""
        if journal is None:
            return
        try:
            journal.append_completed(job_id, status, result=result,
                                     error=error)
            journal.maybe_rotate()
        except Exception:  # noqa: BLE001
            pass

    def _make_work(job_id, names, config, checklist, deadline_ms,
                   allow_partial, retrieve_count):
        """Build the queued callable for one async generation.

        Shared by the live submit path and journal replay.
        """
        def work():
            try:
                result = _run_generation(names, config, checklist,
                                         deadline_ms, allow_partial,
                                         retrieve_count)
            except Exception as exc:
                _journal_completion(job_id, "failed",
                                    error=f"{type(exc).__name__}: {exc}")
                raise
            _journal_completion(job_id, "done", result=result)
            return result
        return work

    @app.route("/api/generate_async", methods=("POST",))
    def generate_async(request: Request) -> Response:
        payload = request.json()
        idem_key = request.headers.get("idempotency-key")
        if idem_key is None and payload.get("idempotency_key") is not None:
            idem_key = str(payload["idempotency_key"])
        names, config, checklist = _parse_generation_request(
            payload, max_new_tokens_cap, default_speculative_k,
            catalog=catalog, max_mcts_rollouts=max_mcts_rollouts)
        deadline_ms = _parse_deadline(payload, default_deadline_ms)
        retrieve_count = _parse_retrieve_k(payload, default_retrieve_k,
                                           retrieval_index is not None)
        allow_partial = bool(payload.get("partial", False))
        # The job id is minted before the journal append so journal and
        # queue agree; the idempotency claim is provisional until the
        # submit sticks (journal failure / full queue releases it).
        job_id = uuid.uuid4().hex[:12]
        if idem_key:
            with idempotency_lock:
                claim = idempotency.get(idem_key)
                if claim is None:
                    idempotency[idem_key] = {"job_id": job_id,
                                             "committed": False}
                else:
                    existing = claim["job_id"]
                    committed = claim["committed"]
            if claim is not None:
                if not committed:
                    # The original submit is still in flight and may
                    # yet roll back (journal error, full queue); its
                    # job id must not leak to a duplicate, so the
                    # duplicate retries instead.
                    return Response.error(
                        "a submit with this Idempotency-Key is in "
                        "flight; retry", status=503,
                        headers={"Retry-After": "1"})
                # A retry of a submit we already accepted: point the
                # client at the original job instead of running twice.
                return Response.json(
                    {"job_id": existing,
                     "status": _job_status_of(existing),
                     "deduplicated": True}, status=202)
        shed = _admit(_admission_cost(config))
        if shed is not None:
            _forget_idempotency(idem_key, job_id)
            return shed
        if journal is not None:
            try:
                journal.append_accepted(job_id, payload,
                                        idempotency_key=idem_key)
            except JournalError as exc:
                # Cannot make the acknowledgement durable => refuse the
                # work *before* the 202, never acknowledge-then-lose.
                _forget_idempotency(idem_key, job_id)
                return Response.error(
                    f"journal unavailable: {exc}", status=503,
                    headers={"Retry-After": "1"})
        work = _make_work(job_id, names, config, checklist, deadline_ms,
                          allow_partial, retrieve_count)
        try:
            jobs.submit(work, job_id=job_id)
        except (QueueFullError, RuntimeError, ValueError) as exc:
            _forget_idempotency(idem_key, job_id)
            # Journaled but never queued: a "rejected" completion stops
            # replay from resurrecting work the client was refused.
            _journal_completion(job_id, "rejected", error=str(exc))
            status = 429 if isinstance(exc, QueueFullError) else 503
            return Response.error(str(exc), status=status)
        _commit_idempotency(idem_key, job_id)
        return Response.json({"job_id": job_id, "status": "pending"},
                             status=202)

    @app.route("/api/generate_stream", methods=("POST",))
    def generate_stream(request: Request) -> Response:
        payload = request.json()
        names, config, checklist = _parse_generation_request(
            payload, max_new_tokens_cap, default_speculative_k,
            catalog=catalog, max_mcts_rollouts=max_mcts_rollouts)
        deadline_ms = _parse_deadline(payload, default_deadline_ms)
        retrieve_count = _parse_retrieve_k(payload, default_retrieve_k,
                                           retrieval_index is not None)
        if config.strategy == "beam":
            return Response.error(
                "beam search cannot stream; use /api/generate")
        exemplars, retrieval_degraded = _fetch_exemplars(names,
                                                         retrieve_count)
        clock = registry.clock
        start = clock.now()
        cost = _admission_cost(config)
        if config.strategy == "mcts":
            # A tree search has no token stream until the search picks a
            # winner; run it to completion, then replay the winning
            # tokens as events so SSE clients keep one wire format.
            shed = _admit(cost)
            if shed is not None:
                return shed
            issued: list = []

            def mcts_events():
                try:
                    prompt_text, new_ids, cfg, info = (
                        run_constrained_generation(
                            pipeline, names, config,
                            checklist=checklist, exemplars=exemplars,
                            submit=_engine_submit(issued),
                            catalog=catalog,
                            retrieval_index=retrieval_index,
                            registry=registry,
                            deadline_ms=deadline_ms))
                    recipe = pipeline.finish_recipe(
                        prompt_text, new_ids, names,
                        elapsed=clock.now() - start)
                except DeadlineExceededError as exc:
                    yield {"error": str(exc),
                           "deadline_exceeded": True,
                           "tokens_emitted": 0}
                    return
                except Exception as exc:  # noqa: BLE001 - headers sent
                    yield {"error": str(exc)}
                    return
                for token in new_ids:
                    yield {"token": int(token),
                           "text": pipeline.tokenizer.decode([int(token)])}
                body = _generation_payload(recipe, exemplars,
                                           retrieval_degraded)
                body.update(info)
                if any(request.degraded for request in issued):
                    body["degraded"] = True
                yield {"done": True, "recipe": body}

            return Response.event_stream(mcts_events())
        prompt_text, prompt_ids, config, processors = pipeline.prepare_prompt(
            names, generation=config, checklist=checklist,
            exemplars=exemplars)
        if config.constraints is not None:
            # Constraint decoding *can* stream: the grammar + phrase
            # masks ride the engine's logits path token by token (the
            # text-predicate retry of the non-streaming path is not
            # available once tokens are on the wire, so the final event
            # reports ``constraints_satisfied`` honestly instead).
            processors = build_constrained_processors(
                pipeline.tokenizer, config, config.constraints,
                catalog=catalog, registry=registry,
                user_processors=processors)
        shed = _admit(cost)
        if shed is not None:
            return shed
        try:
            handle = router.submit(prompt_ids, config, processors,
                                   deadline_ms=deadline_ms)
        except Exception as exc:  # noqa: BLE001 - mapped or re-raised
            response = _serving_error_response(exc)
            if response is None:
                raise
            return response

        def events():
            emitted = 0
            try:
                try:
                    for token in handle.tokens():
                        emitted += 1
                        yield {"token": int(token),
                               "text": pipeline.tokenizer.decode([int(token)])}
                    recipe = pipeline.finish_recipe(
                        prompt_text, handle.result(), names,
                        elapsed=clock.now() - start)
                except DeadlineExceededError as exc:
                    # headers already sent; the deadline becomes a
                    # terminal event instead of a 504 status.
                    yield {"error": str(exc), "deadline_exceeded": True,
                           "tokens_emitted": emitted}
                    return
                except Exception as exc:  # noqa: BLE001 - headers already sent
                    yield {"error": str(exc)}
                    return
                body = _generation_payload(recipe, exemplars,
                                           retrieval_degraded)
                if config.constraints is not None:
                    problems = violations(config.constraints,
                                          recipe.raw_text, catalog)
                    body["constraints_satisfied"] = not problems
                    if problems:
                        body["constraint_violations"] = problems
                yield {"done": True, "recipe": body}
            finally:
                # Runs on normal completion AND when the framework
                # closes an abandoned stream (client disconnected):
                # cancel so the engine does not keep decoding to
                # max_new_tokens in a batch slot nobody is reading.
                if not handle.done:
                    handle.cancel()

        return Response.event_stream(events())

    @app.route("/api/search", methods=("POST",))
    def search(request: Request) -> Response:
        if retrieval_index is None:
            return Response.error(
                "retrieval is not enabled on this server "
                "(start with repro serve --retrieval)", status=503)
        payload = request.json()
        query = payload.get("query")
        selected = payload.get("ingredients")
        # Validation raises ValueError → the framework's 400 path, the
        # same contract every other endpoint uses.
        if query is not None:
            if not isinstance(query, str) or not query.strip():
                raise ValueError("'query' must be a non-empty string")
            if len(query) > MAX_QUERY_CHARS:
                raise ValueError(
                    f"'query' is capped at {MAX_QUERY_CHARS} characters "
                    f"(got {len(query)})")
        elif selected is not None:
            if not isinstance(selected, list) or not selected:
                raise ValueError("'ingredients' must be a non-empty list")
            if len(selected) > MAX_INGREDIENTS:
                raise ValueError(
                    f"at most {MAX_INGREDIENTS} ingredients supported")
            query = query_from_ingredients([str(name) for name in selected])
            if not query:
                raise ValueError("'ingredients' normalized to an empty query")
        else:
            raise ValueError("provide 'query' or 'ingredients'")
        k = payload.get("k", 5)
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValueError(f"'k' must be an integer, got {k!r}")
        if not 1 <= k <= MAX_SEARCH_K:
            raise ValueError(f"'k' must be in [1, {MAX_SEARCH_K}] (got {k})")
        exact = bool(payload.get("exact", False))
        include_text = bool(payload.get("include_text", False))
        shed = _admit(SEARCH_ADMISSION_COST)
        if shed is not None:
            retrieval_shed.inc()
            return shed
        try:
            hits = retrieval_index.search(query, k=k, exact=exact)
        except Exception as exc:  # noqa: BLE001 - incl. injected faults
            # A search has nothing to degrade *to* — unlike generation —
            # so a faulted lookup is an explicit 503, never a hang/500.
            return Response.error(
                f"retrieval unavailable: {exc}", status=503)
        return Response.json({
            "hits": [hit.to_dict(include_text=include_text)
                     for hit in hits],
            "k": k,
            "mode": "exact" if exact else "ann",
            "documents": len(retrieval_index),
        })

    @app.route("/api/retrieval")
    def retrieval_stats(request: Request) -> Response:
        if retrieval_index is None:
            return Response.json({"enabled": False})
        return Response.json({
            "enabled": True,
            "default_retrieve_k": default_retrieve_k,
            **retrieval_index.stats(),
        })

    @app.route("/api/engine")
    def engine_stats(request: Request) -> Response:
        return Response.json(router.engine_stats())

    @app.route("/api/cluster")
    def cluster_stats(request: Request) -> Response:
        return Response.json(router.stats())

    @app.route("/api/resilience")
    def resilience_stats(request: Request) -> Response:
        return Response.json({"default_deadline_ms": default_deadline_ms,
                              **router.resilience_stats()})

    @app.route("/api/job")
    def job_status(request: Request) -> Response:
        job_id = request.query.get("id", [None])[0]
        if not job_id:
            return Response.error("missing 'id' query parameter")
        try:
            job = jobs.get(job_id)
        except KeyError:
            # Completed in a previous process: the journal restored the
            # result so a client that submitted before the restart can
            # still fetch it.
            snap = restored.get(job_id)
            if snap is not None:
                return Response.json(snap)
            return Response.error(f"unknown job {job_id}", status=404)
        return Response.json(job.snapshot())

    @app.route("/api/metrics")
    def metrics(request: Request) -> Response:
        fmt = request.query.get("format", ["json"])[0]
        if fmt == "text":
            return Response.text(render_text(registry))
        if fmt != "json":
            return Response.error(f"unknown format {fmt!r}; use json or text")
        include_trace = request.query.get("trace", ["0"])[0] in ("1", "true")
        return Response.json(
            render_json(registry, tracer if include_trace else None))

    @app.route("/api/suggest", methods=("POST",))
    def suggest(request: Request) -> Response:
        nonlocal pairing
        payload = request.json()
        selected = payload.get("ingredients")
        if not isinstance(selected, list) or not selected:
            return Response.error("'ingredients' must be a non-empty list")
        if pairing is None:
            pairing = PairingGraph(catalog)
        suggestions = pairing.suggest([str(s) for s in selected],
                                      limit=int(payload.get("limit", 5)))
        return Response.json({
            "suggestions": [
                {"name": name, "score": round(score, 4)}
                for name, score in suggestions
            ],
        })

    # ------------------------------------------------------------------
    # Journal replay: resurrect the previous process's state.
    # ------------------------------------------------------------------
    def _replay_journal() -> dict:
        """Fold the journal into live state; re-submit incomplete jobs.

        Completed jobs become ``restored`` snapshots (results stay
        fetchable); accepted-but-incomplete jobs re-enter the queue in
        acceptance order and execute exactly once *here* — engine
        output is deterministic, so even a job that did run before the
        crash (but lost its completion record) re-executes to the
        identical result.
        """
        state = journal.replay()
        with idempotency_lock:
            for key, jid in state.idempotency.items():
                idempotency.setdefault(key, {"job_id": jid,
                                             "committed": True})
        for jid, record in state.completed.items():
            status = record.get("status", "done")
            if status == "rejected":
                # Refused with a 4xx/5xx before the 202 — there is no
                # acknowledged job to restore.
                continue
            snap = {"job_id": jid, "status": status, "restored": True}
            if record.get("result") is not None:
                snap["result"] = record["result"]
            if record.get("error") is not None:
                snap["error"] = record["error"]
            restored[jid] = snap
        replayed = failed = 0
        for jid, record in state.incomplete():
            payload = record.get("request") or {}
            try:
                names, config, checklist = _parse_generation_request(
                    payload, max_new_tokens_cap, default_speculative_k,
                    catalog=catalog, max_mcts_rollouts=max_mcts_rollouts)
                deadline_ms = _parse_deadline(payload, default_deadline_ms)
                retrieve_count = _parse_retrieve_k(
                    payload, default_retrieve_k, retrieval_index is not None)
            except ValueError as exc:
                # Journaled under a different server config (cap,
                # retrieval) — resolve it rather than crash-loop on it.
                error = f"replay rejected: {exc}"
                _journal_completion(jid, "failed", error=error)
                restored[jid] = {"job_id": jid, "status": "failed",
                                 "error": error, "restored": True}
                failed += 1
                continue
            work = _make_work(jid, names, config, checklist, deadline_ms,
                              bool(payload.get("partial", False)),
                              retrieve_count)
            try:
                # block=True: a backlog larger than max_pending must
                # re-enqueue completely, not lose its tail to a 429.
                jobs.submit(work, job_id=jid, block=True)
                replayed += 1
            except Exception as exc:  # noqa: BLE001
                error = f"replay submit failed: {type(exc).__name__}: {exc}"
                _journal_completion(jid, "failed", error=error)
                restored[jid] = {"job_id": jid, "status": "failed",
                                 "error": error, "restored": True}
                failed += 1
        return {"restored": len(restored), "replayed": replayed,
                "replay_failed": failed,
                "torn_records": state.torn_records}

    app.replay_summary = _replay_journal() if journal is not None else None

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    def begin_drain() -> None:
        """Stop admitting new work; in-flight jobs keep running."""
        lifecycle["draining"] = True

    def shutdown_gracefully(deadline_seconds: float = 10.0) -> dict:
        """SIGTERM path: drain, flush durable state, stop the engine.

        1. stop admission — every new request sheds with 503 +
           ``Retry-After`` while the drain runs;
        2. wait (up to ``deadline_seconds``) for queued + running jobs;
           leftovers are failed with the named shutdown error — their
           journal records stay incomplete, so the *next* process
           replays them;
        3. stop the fleet — each replica's supervisor spills its prefix
           cache inside ``stop()`` (skipping crashed engines);
        4. compact + close the journal.

        Idempotent: a second call returns the first call's summary.
        """
        if lifecycle["shutdown"] is not None:
            return lifecycle["shutdown"]
        lifecycle["draining"] = True
        drained = jobs.wait_idle(timeout=deadline_seconds)
        leftover = jobs.unfinished
        jobs.shutdown()
        # The router records the real spill outcome, so the summary
        # never claims a warm snapshot that was not actually written.
        router.stop()
        spilled = router.last_spill_saved is True
        journal_stats = None
        if journal is not None:
            try:
                journal.rotate()
            except Exception:  # noqa: BLE001 - closing anyway
                pass
            journal_stats = journal.stats()
            journal.close()
        summary = {"drained": drained, "jobs_abandoned": leftover,
                   "spilled": spilled, "journal": journal_stats}
        lifecycle["shutdown"] = summary
        return summary

    app.begin_drain = begin_drain
    app.shutdown_gracefully = shutdown_gracefully

    return app
