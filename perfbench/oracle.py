"""In-process reference decodes that every served response is checked against.

Deterministic requests (greedy, seeded sample, speculative, streamed
constrained) must match a sequential decode of the same
checkpoint and payload through the Tensor path -- no engine, no
kernels, no router, no prefix cache -- token for token and field for
field.  MCTS responses depend on rollout scheduling only through the
engine's batching, which the program promises is bit-identical, so they
are checked for parse validity and constraint satisfaction here and for
a stable digest across repeats by the caller.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import Ratatouille
from repro.decoding import (build_constrained_processors, parse_constraints,
                            violations)
from repro.models import GenerationConfig, generate
from repro.obs import NullRegistry, NullTracer
from repro.recipedb import default_catalog

from workloads import Request

#: Recipe fields compared between a response and its reference.
RECIPE_FIELDS = ("title", "ingredients", "instructions", "is_valid",
                 "ingredient_coverage")


def digest(tokens: Sequence[int]) -> str:
    return hashlib.sha256(
        ",".join(str(int(t)) for t in tokens).encode()).hexdigest()[:16]


class Oracle:
    """Sequential reference decoder over one checkpoint."""

    def __init__(self, checkpoint: str) -> None:
        self.pipeline = Ratatouille.load(checkpoint)
        self.index = self.pipeline.build_retrieval_index()
        self.draft = self.pipeline.build_draft(order=3)
        self.catalog = default_catalog()
        self._memo: Dict[str, Tuple[List[int], dict]] = {}

    def _config(self, request: Request) -> GenerationConfig:
        payload = request.payload
        config = GenerationConfig(
            max_new_tokens=payload["max_new_tokens"],
            strategy=payload["strategy"],
            temperature=payload["temperature"], top_k=payload["top_k"],
            top_p=payload["top_p"], beam_size=payload["beam_size"],
            length_penalty=payload["length_penalty"],
            repetition_penalty=payload["repetition_penalty"],
            seed=payload["seed"], speculative_k=request.speculative_k,
            mcts_rollouts=payload["mcts_rollouts"],
            mcts_c_puct=payload["mcts_c_puct"])
        if "constraints" in payload:
            config.constraints = parse_constraints(payload["constraints"])
        return config

    def prompt_text(self, request: Request) -> str:
        return self.pipeline.prepare_prompt(request.names)[0]

    def recipe_fields(self, request: Request, tokens: Sequence[int]) -> dict:
        """What the server's done event must say about these tokens."""
        recipe = self.pipeline.finish_recipe(self.prompt_text(request),
                                             list(tokens), request.names)
        body = {name: getattr(recipe, name) for name in RECIPE_FIELDS}
        body["novelty"] = self.index.novelty(recipe.raw_text).to_dict()
        body["retrieved_k"] = 0
        constraints = request.payload.get("constraints")
        if constraints is not None:
            problems = violations(parse_constraints(constraints),
                                  recipe.raw_text, self.catalog)
            body["constraints_satisfied"] = not problems
            if problems and request.kind != "mcts":
                body["constraint_violations"] = problems
        return body

    def reference(self, request: Request) -> Tuple[List[int], dict]:
        """Sequential decode of one deterministic request (memoised by
        payload: repeats in a workload cost one decode)."""
        key = json.dumps(request.payload, sort_keys=True)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        config = self._config(request)
        _, prompt_ids, config, processors = self.pipeline.prepare_prompt(
            request.names, generation=config)
        if config.constraints is not None:
            processors = build_constrained_processors(
                self.pipeline.tokenizer, config, config.constraints,
                catalog=self.catalog, user_processors=processors)
        if config.speculative_k > 0:
            config.draft = self.draft
        tokens = list(generate(self.pipeline.model, prompt_ids, config,
                               processors=processors,
                               registry=NullRegistry(), tracer=NullTracer()))
        body = self.recipe_fields(request, tokens)
        self._memo[key] = (tokens, body)
        return tokens, body

    def check(self, request: Request, tokens: List[int],
              recipe: dict) -> Optional[str]:
        """None when the response is right, else why it is wrong."""
        served = {name: recipe.get(name) for name in
                  RECIPE_FIELDS + ("novelty", "constraints_satisfied",
                                   "constraint_violations", "retrieved_k")
                  if name in recipe}
        if request.kind == "mcts":
            expected = self.recipe_fields(request, tokens)
            if not expected["is_valid"]:
                return "mcts output does not parse"
            if not expected.get("constraints_satisfied", True):
                return "mcts output violates its constraints"
            if "search" not in recipe or recipe.get("search_degraded"):
                return "mcts response carries no (undegraded) search block"
        else:
            ref_tokens, expected = self.reference(request)
            if tokens != ref_tokens:
                return (f"streamed tokens differ from the sequential "
                        f"decode ({len(tokens)} vs {len(ref_tokens)} tokens)")
        for name, value in expected.items():
            if served.get(name) != value:
                return f"field {name!r}: served {served.get(name)!r}, " \
                       f"expected {value!r}"
        return None
