"""Seeded request generators for the serving benchmark's workloads.

Each workload is an open loop: ``rate * seconds`` requests whose send
times are a Poisson process conditioned on that count (sorted uniform
draws over the round), so a run's request count depends only on the
rate and the run length.  Strategy and budget shares are stratified --
exact proportions, shuffled by the seed -- which keeps the mix identical
across seeds while the ingredients, seeds and arrival times change.

Every payload is pre-checked with the program's own constraint parser
(``parse_constraints`` / ``apply_constraints_to_prompt``) and redrawn
when the server would have to reject it, so a non-2xx answer is always
a server failure, never a benchmark-made client error.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.decoding import DIETS, apply_constraints_to_prompt, parse_constraints
from repro.recipedb import default_catalog

#: Mirrors the server's payload ceiling on ingredient names.
MAX_INGREDIENTS = 20

#: Every generation knob the server parses, sent explicitly so the
#: in-process oracle never depends on a server-side default.
BASE_KNOBS = {"temperature": 0.8, "top_k": 20, "top_p": 1.0,
              "beam_size": 4, "length_penalty": 0.7,
              "repetition_penalty": 1.0, "mcts_rollouts": 8,
              "mcts_c_puct": 1.4}

#: ``repro serve --speculative`` default draft length, which requests
#: that omit ``speculative_k`` decode with.
SERVER_SPECULATIVE_K = 4


@dataclass
class Request:
    """One scheduled request: its payload plus what the oracle needs."""

    index: int
    due: float                      # seconds after the round starts
    kind: str                       # share name within the workload
    payload: dict
    names: List[str]                # prompt ingredients after constraints
    speculative_k: int              # effective draft length


@dataclass(frozen=True)
class Workload:
    name: str
    rate: float                                # requests per second
    shares: Tuple[Tuple[str, float], ...]      # kind -> share of requests
    budgets: Tuple[Tuple[int, float], ...]     # max_new_tokens -> share


#: Why each workload exists, and why a third was dropped: README.md.
WORKLOADS = {
    "interactive": Workload(
        name="interactive", rate=6.0,
        shares=(("greedy", 0.25), ("sample", 0.25), ("speculative", 0.25),
                ("constrained", 0.25)),
        budgets=((48, 0.25), (96, 0.5), (160, 0.25))),
    "search_mcts": Workload(
        name="search_mcts", rate=3.0,
        shares=(("mcts", 0.5), ("mcts_repeat", 0.15),
                ("constrained_include", 0.35)),
        budgets=((48, 1.0),)),
}


def _stratified(rng: np.random.Generator, count: int,
                shares: Sequence[Tuple[object, float]]) -> list:
    """Exactly ``round(share * count)`` of each kind, shuffled."""
    kinds: list = []
    for kind, share in shares[:-1]:
        kinds.extend([kind] * int(round(share * count)))
    kinds.extend([shares[-1][0]] * max(0, count - len(kinds)))
    kinds = kinds[:count]
    rng.shuffle(kinds)
    return kinds


def _arrivals(rng: np.random.Generator, count: int,
              seconds: float) -> List[float]:
    """Poisson arrivals conditioned on ``count`` events in a round."""
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=count))


class Generator:
    """Builds one workload's schedule from a seed."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = np.random.default_rng(
            [seed, zlib.crc32(workload.name.encode())])
        self.catalog = default_catalog()
        self.names = self.catalog.names()

    # -- payload pieces ------------------------------------------------
    def _ingredients(self, low: int = 2, high: int = 5) -> List[str]:
        count = int(self.rng.integers(low, high + 1))
        picks = self.rng.choice(len(self.names), size=count, replace=False)
        return [self.names[int(i)] for i in picks]

    def _constraints(self, include: bool) -> dict:
        raw: dict = {"diet": str(self.rng.choice(DIETS))}
        if include:
            raw["include_ingredients"] = [
                self.names[int(self.rng.integers(len(self.names)))]]
        else:
            raw["exclude_ingredients"] = [
                self.names[int(self.rng.integers(len(self.names)))]]
        return raw

    def _valid(self, names: List[str], constraints: Optional[dict]
               ) -> Optional[List[str]]:
        """The prompt names the server will use, or None if it must 400."""
        if constraints is None:
            return list(names)
        try:
            parsed = parse_constraints(constraints)
            return apply_constraints_to_prompt(names, parsed, self.catalog,
                                               MAX_INGREDIENTS)
        except ValueError:
            return None

    def _payload(self, names: List[str], strategy: str, budget: int,
                 seed: int, speculative_k: Optional[int],
                 constraints: Optional[dict] = None) -> dict:
        payload = {"ingredients": names, "strategy": strategy,
                   "max_new_tokens": budget, "seed": seed, **BASE_KNOBS}
        if speculative_k is not None:
            payload["speculative_k"] = speculative_k
        if constraints is not None:
            payload["constraints"] = constraints
        return payload

    def _draw(self, kind: str, budget: int
              ) -> Tuple[dict, List[str], int]:
        """A valid payload of ``kind``; redraws until the pre-check passes."""
        while True:
            names = self._ingredients()
            seed = int(self.rng.integers(1, 2 ** 31 - 1))
            constraints = None
            speculative_k: Optional[int] = 0
            strategy = "greedy"
            if kind == "sample":
                strategy = "sample"
            elif kind == "speculative":
                speculative_k = None  # the server default draft length
            elif kind in ("constrained", "constrained_include"):
                constraints = self._constraints(
                    include=kind == "constrained_include")
            elif kind == "mcts":
                strategy = "mcts"
                constraints = self._constraints(include=True)
            merged = self._valid(names, constraints)
            if merged is None:
                continue
            payload = self._payload(names, strategy, budget, seed,
                                    speculative_k, constraints)
            effective_k = (SERVER_SPECULATIVE_K if speculative_k is None
                           else speculative_k)
            return payload, merged, effective_k

    # -- schedules -----------------------------------------------------
    def _budgets(self, kinds: List[str]) -> List[int]:
        """Each kind's requests split over the budget shares, shuffled."""
        pools = {kind: _stratified(self.rng, kinds.count(kind),
                                   self.workload.budgets)
                 for kind in sorted(set(kinds))}
        return [pools[kind].pop() for kind in kinds]

    def schedule(self, seconds: float) -> List[Request]:
        workload = self.workload
        count = max(1, int(round(workload.rate * seconds)))
        kinds = _stratified(self.rng, count, workload.shares)
        dues = _arrivals(self.rng, count, seconds)
        budgets = self._budgets(kinds)
        requests: List[Request] = []
        mcts_sent: List[int] = []
        for index, (kind, due) in enumerate(zip(kinds, dues)):
            budget = budgets[index]
            if kind == "mcts_repeat" and mcts_sent:
                # Same payload as an earlier search: its digest must
                # repeat whatever else shares the batch this time.
                source = requests[mcts_sent[int(self.rng.integers(
                    len(mcts_sent)))]]
                requests.append(Request(index, due, "mcts",
                                        dict(source.payload),
                                        list(source.names),
                                        source.speculative_k))
                continue
            if kind == "mcts_repeat":
                kind = "mcts"
            payload, names, spec_k = self._draw(kind, budget)
            if kind == "mcts":
                mcts_sent.append(index)
            requests.append(Request(index, due, kind, payload, names, spec_k))
        return requests


def warmup_payloads() -> List[dict]:
    """Fixed requests sent before timing, one per decode path, so lazy
    set-up (grammar compile, kernel workspaces) is not timed."""
    names = ["onion", "garlic", "rice"]
    base = {"ingredients": names, "max_new_tokens": 24, "seed": 7,
            **BASE_KNOBS}
    return [
        {**base, "strategy": "greedy", "speculative_k": 0},
        {**base, "strategy": "sample"},
        {**base, "strategy": "greedy", "speculative_k": 0,
         "constraints": {"diet": "vegetarian"}},
        {**base, "strategy": "mcts", "mcts_rollouts": 2,
         "constraints": {"diet": "vegan"}},
    ]
