"""Search-guided decoding: PUCT tree search over decode prefixes.

The shape follows "Monte Carlo Tree Search for Recipe Generation using
GPT-2" (arXiv:2401.05199): **selection** walks the tree by PUCT,
**expansion** grows one child per iteration from the first
``expansion_chunk`` tokens of a fresh rollout, the **rollout** itself
is a full grammar-constrained decode submitted through whatever decode
path the caller wires in (the serving engine, a supervised engine, the
cluster router, or the sequential fallback), and **backup** propagates
the recipe reward to the root.

Rollouts run in **waves** of ``MAX_CHILDREN``: a wave's leaves are
selected up front (virtual visits spread them out), all of its
rollouts are submitted before any result is read, and the results
then apply in iteration order.  Submitting through
:class:`~repro.serving.InferenceEngine` is what makes the tree cheap:
one admission picks up the wave, sibling rollouts share the exact
prompt+prefix token sequence — the engine prefills it once and serves
the other copies from its prefix KV trie at full depth (the benchmark
gates >= 50% hit-token rate within one tree) — and equal-length rows
share one stacked forward per decode step.  Prefix-affinity routing
keys on leading prompt tokens, which every rollout of a tree shares —
a tree never scatters across replicas.

Determinism: rollout seeds derive from ``config.seed`` and the
iteration index, a wave's selection is a pure function of the tree,
results apply in iteration order whatever order they finish in,
engine decoding is bit-identical to sequential decoding by contract,
the reward is deterministic, and ties break by insertion order — a
fixed-seed search is bit-identical across runs and across decode paths
(property-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional, Sequence

from ..models.generation import GenerationConfig
from ..obs import MetricsRegistry
from ..serving import DeadlineExceededError
from .grammar import MIN_BUDGET
from .reward import RewardBreakdown

#: Tokens of a rollout that become the new child node's prefix.
EXPANSION_CHUNK = 16

#: Widest a node may grow before selection must descend through it.
MAX_CHILDREN = 3


class CompletedDecode:
    """A rollout handle that is already done: the sequential contract.

    Rollouts are submitted as ``submit(...) -> handle``, with
    ``handle.result()`` returning the new token ids and
    ``handle.cancel()`` abandoning an unfinished decode.  A decode path
    that finishes inside ``submit`` (the in-process sequential decoder)
    returns its tokens wrapped in one of these.
    """

    __slots__ = ("_tokens",)

    def __init__(self, tokens: Sequence[int]) -> None:
        self._tokens = [int(t) for t in tokens]

    def result(self) -> List[int]:
        return list(self._tokens)

    def cancel(self) -> None:
        """Nothing to cancel: the decode already finished."""


class _RewardFailed(Exception):
    """A reward/predicate evaluation raised; the search degrades."""


@dataclass
class _Node:
    prefix: List[int]
    parent: Optional["_Node"] = None
    children: List["_Node"] = field(default_factory=list)
    visits: int = 0
    value_sum: float = 0.0

    @property
    def mean(self) -> float:
        return self.value_sum / self.visits if self.visits else 0.0


@dataclass
class SearchResult:
    """Outcome of one MCTS decode (or its degraded fallback)."""

    tokens: List[int]
    reward: Optional[RewardBreakdown]
    rollouts: int
    nodes_expanded: int
    search_degraded: bool = False
    #: Prompt tokens submitted across all rollouts — the denominator of
    #: the within-tree prefix-cache hit-token rate.
    prompt_tokens_submitted: int = 0


class MCTSDecoder:
    """One search session; construct per request.

    Parameters
    ----------
    submit:
        ``submit(prompt_ids, config, processors, deadline_ms) ->
        handle`` — starts one rollout without waiting for it; the
        handle's ``result()`` returns the new token ids and
        ``cancel()`` abandons it (:class:`CompletedDecode` for a path
        that decodes inside ``submit``).  The caller wires this to its
        decode path; rollout configs carry ``mcts_rollout=True`` so
        engine metrics attribute them to ``strategy="mcts"``.  Errors
        from ``submit`` or ``result()`` propagate unchanged.
    build_processors:
        ``build_processors(preamble, budget) -> list`` — fresh
        grammar/constraint/user processors for a rollout that resumes
        ``preamble`` with ``budget`` new tokens (processors are
        stateful; sharing one across rollouts corrupts its FSM state).
    reward:
        ``reward(new_tokens) -> RewardBreakdown`` — scores a finished
        rollout.  Must run the ``decoding.reward`` fault check; any
        exception from it (or from ``satisfies``) degrades the search
        to constrained greedy.
    """

    def __init__(self, *,
                 submit: Callable[..., Any],
                 build_processors: Callable[[Sequence[int], int], list],
                 reward: Callable[[Sequence[int]], RewardBreakdown],
                 satisfies: Optional[Callable[[Sequence[int]], bool]] = None,
                 registry: Optional[MetricsRegistry] = None,
                 clock=None,
                 expansion_chunk: int = EXPANSION_CHUNK,
                 max_children: int = MAX_CHILDREN) -> None:
        self.submit = submit
        self.build_processors = build_processors
        self.reward = reward
        self.satisfies = satisfies
        self.clock = clock
        self.expansion_chunk = max(1, int(expansion_chunk))
        self.max_children = max(1, int(max_children))
        self._metrics = None
        if registry is not None:
            self._metrics = {
                "rollouts": registry.counter(
                    "decoding_rollouts_total",
                    help="MCTS rollouts decoded").labels(),
                "nodes": registry.counter(
                    "decoding_nodes_expanded_total",
                    help="MCTS tree nodes expanded").labels(),
                "degraded": registry.counter(
                    "decoding_degraded_total",
                    help="Searches degraded to constrained greedy after "
                         "a reward/constraint evaluation failure").labels(),
                "reward": registry.histogram(
                    "decoding_reward",
                    help="Recipe reward of completed rollouts").labels(),
            }

    def _count(self, name: str, value: float = 1) -> None:
        if self._metrics is not None:
            self._metrics[name].inc(value)

    def _observe_reward(self, value: float) -> None:
        if self._metrics is not None:
            self._metrics["reward"].observe(value)

    # -- tree policy ---------------------------------------------------
    def _select(self, root: _Node, c_puct: float) -> _Node:
        node = root
        while node.children and len(node.children) >= self.max_children:
            parent_visits = max(1, node.visits)
            best, best_score = None, -math.inf
            for child in node.children:
                explore = c_puct * math.sqrt(parent_visits) / (1 + child.visits)
                score = child.mean + explore
                if score > best_score:  # strict: ties keep insertion order
                    best, best_score = child, score
            node = best
        return node

    @staticmethod
    def _backup(node: _Node, value: float) -> None:
        while node is not None:
            node.visits += 1
            node.value_sum += value
            node = node.parent

    @staticmethod
    def _visit(node: _Node, delta: int) -> None:
        """Add (or remove) a virtual visit along ``node``'s path."""
        while node is not None:
            node.visits += delta
            node = node.parent

    @staticmethod
    def _rollout_seed(config: GenerationConfig, iteration: int) -> int:
        return (config.seed * 1_000_003 + iteration * 7_919 + 17) % (2 ** 31)

    # -- search --------------------------------------------------------
    def search(self, prompt_ids: Sequence[int], config: GenerationConfig,
               deadline_ms: Optional[float] = None) -> SearchResult:
        """Run ``config.mcts_rollouts`` guided rollouts; return the best.

        Rollouts run in waves of ``max_children``: the wave's leaves
        are selected (each with a virtual visit, so later picks in the
        wave spread out), every rollout is submitted before any result
        is read, and rewards, backups and expansions then apply in
        iteration order.  Iteration 0 rolls out constrained greedy
        from the root, so the search result is never worse (under the
        reward) than the greedy baseline the benchmark compares
        against.  A reward or constraint-predicate failure — the
        ``decoding.reward`` fault point included — degrades to that
        same constrained greedy decode with ``search_degraded=True``;
        a decode failure (shed, no replica, crash, validation)
        propagates under its own name.  Either way the wave's
        unfinished rollouts are cancelled first.
        """
        prompt = [int(t) for t in prompt_ids]
        root = _Node(prefix=[])
        # Two leaderboards: rollouts passing the constraint predicate
        # outrank every violating one (the masks block canonical
        # spellings, but a subword tokenizer can spell a banned word
        # along a path the masks cannot see; such a rollout must not
        # win on reward alone).
        best_tokens: Optional[List[int]] = None
        best_reward: Optional[RewardBreakdown] = None
        best_is_valid = False
        rollouts = 0
        nodes_expanded = 0
        submitted = 0
        expiry = None
        if deadline_ms is not None and self.clock is not None:
            expiry = self.clock.now() + deadline_ms / 1e3
        iteration = 0
        expired = False
        while iteration < config.mcts_rollouts and not expired:
            remaining_ms = None
            if expiry is not None:
                remaining_ms = (expiry - self.clock.now()) * 1e3
                if remaining_ms <= 0:
                    break
            wave = self._plan_wave(root, prompt, config, iteration)
            iteration += len(wave)
            handles = []
            try:
                # Submit back to back so one engine admission picks up
                # the whole wave and its rows share every decode step.
                for node, rollout_prompt, rollout_config, processors in wave:
                    try:
                        handles.append(self.submit(
                            rollout_prompt, rollout_config, processors,
                            remaining_ms))
                    except DeadlineExceededError:
                        expired = True
                        break
                for (node, rollout_prompt, _, _), handle in zip(wave,
                                                                handles):
                    try:
                        new_tokens = handle.result()
                    except DeadlineExceededError:
                        expired = True
                        continue
                    submitted += len(rollout_prompt)
                    rollouts += 1
                    self._count("rollouts")
                    full = node.prefix + list(new_tokens)
                    try:
                        breakdown = self.reward(full)
                        valid = (self.satisfies(full)
                                 if self.satisfies is not None else True)
                    except Exception as error:  # noqa: BLE001 - degrades
                        raise _RewardFailed() from error
                    self._observe_reward(breakdown.total)
                    self._backup(node, breakdown.total)
                    better = (best_reward is None
                              or (valid and not best_is_valid)
                              or (valid == best_is_valid
                                  and breakdown.total > best_reward.total))
                    if better:
                        best_tokens, best_reward = full, breakdown
                        best_is_valid = valid
                    if self._expand(node, new_tokens, breakdown.total,
                                    config.max_new_tokens):
                        nodes_expanded += 1
                        self._count("nodes")
            except BaseException as error:
                for handle in handles:
                    handle.cancel()
                if not isinstance(error, _RewardFailed):
                    raise
                return self._degrade(prompt, config, deadline_ms,
                                     rollouts, nodes_expanded, submitted)
        if best_tokens is None:
            # Deadline expired before the first rollout finished.
            raise DeadlineExceededError(0, deadline_ms or 0.0, [])
        return SearchResult(tokens=best_tokens, reward=best_reward,
                            rollouts=rollouts, nodes_expanded=nodes_expanded,
                            prompt_tokens_submitted=submitted)

    def _plan_wave(self, root: _Node, prompt: List[int],
                   config: GenerationConfig, first: int) -> list:
        """Select up to ``max_children`` leaves and build their rollouts.

        Each pick adds a virtual visit along its path (visits up, value
        unchanged), so the next pick in the wave sees a lower mean and
        a smaller exploration bonus there and spreads out; the virtual
        visits are removed before any backup.  Everything is a pure
        function of the tree and the iteration index, so the wave — and
        hence the search — is deterministic.
        """
        wave = []
        last = min(config.mcts_rollouts, first + self.max_children)
        for iteration in range(first, last):
            node = self._select(root, config.mcts_c_puct)
            self._visit(node, +1)
            budget = config.max_new_tokens - len(node.prefix)
            rollout_config = replace(
                config,
                strategy="greedy" if iteration == 0 else "sample",
                seed=self._rollout_seed(config, iteration),
                max_new_tokens=budget,
                constraints=None,
                mcts_rollout=True)
            wave.append((node, prompt + node.prefix, rollout_config,
                         self.build_processors(node.prefix, budget)))
        for node, _, _, _ in wave:
            self._visit(node, -1)
        return wave

    def _expand(self, node: _Node, new_tokens: Sequence[int], value: float,
                max_new_tokens: int) -> bool:
        """Grow ``node`` a child from the rollout's first chunk, if room."""
        if (len(new_tokens) <= self.expansion_chunk
                or len(node.children) >= self.max_children
                or max_new_tokens - (len(node.prefix) + self.expansion_chunk)
                < MIN_BUDGET):
            return False
        child_prefix = node.prefix + list(new_tokens[:self.expansion_chunk])
        if any(child.prefix == child_prefix for child in node.children):
            return False
        child = _Node(prefix=child_prefix, parent=node)
        child.visits, child.value_sum = 1, value
        node.children.append(child)
        return True

    def _degrade(self, prompt: List[int], config: GenerationConfig,
                 deadline_ms: Optional[float], rollouts: int,
                 nodes_expanded: int, submitted: int) -> SearchResult:
        """Constrained greedy fallback after a reward failure."""
        self._count("degraded")
        greedy = replace(config, strategy="greedy", constraints=None,
                         mcts_rollout=True)
        processors = self.build_processors([], config.max_new_tokens)
        tokens = self.submit(prompt, greedy, processors, deadline_ms).result()
        return SearchResult(tokens=list(tokens), reward=None,
                            rollouts=rollouts, nodes_expanded=nodes_expanded,
                            search_degraded=True,
                            prompt_tokens_submitted=submitted + len(prompt))
