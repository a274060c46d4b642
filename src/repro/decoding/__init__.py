"""Grammar-constrained + search-guided decoding (``docs/DECODING.md``).

Three cooperating layers over the serving stack:

* :mod:`.grammar` — the tagged-format FSM compiled to per-step token
  masks (:class:`RecipeGrammar` / :class:`GrammarMask`), guaranteeing
  every emitted recipe parses;
* :mod:`.constraints` — hard request constraints
  (``include_ingredients`` / ``exclude_ingredients`` / ``diet`` /
  ``max_calories``) over the recipedb substrates, enforced at the
  prompt, the mask, and the text predicate;
* :mod:`.mcts` + :mod:`.reward` — PUCT tree search over decode
  prefixes with a recipe-quality reward, rollouts submitted in
  concurrent waves so siblings share prefix KV and decode steps.

:func:`run_constrained_generation` is the shared driver the webapp
backend and the CLI call.
"""

from .constraints import (Constraints, DIET_RULES, DIETS,
                          MAX_CONSTRAINT_NAMES, PhraseBlocker,
                          apply_constraints_to_prompt, estimate_calories,
                          parse_constraints, violations)
from .driver import (build_constrained_processors, grammar_for,
                     run_constrained_generation)
from .grammar import MIN_BUDGET, GrammarMask, RecipeGrammar
from .mcts import (EXPANSION_CHUNK, MAX_CHILDREN, CompletedDecode,
                   MCTSDecoder, SearchResult)
from .reward import NEUTRAL_NOVELTY, RecipeReward, RewardBreakdown, WEIGHTS

__all__ = [
    "Constraints", "DIET_RULES", "DIETS", "MAX_CONSTRAINT_NAMES",
    "PhraseBlocker", "apply_constraints_to_prompt", "estimate_calories",
    "parse_constraints", "violations",
    "build_constrained_processors", "grammar_for",
    "run_constrained_generation",
    "MIN_BUDGET", "GrammarMask", "RecipeGrammar",
    "EXPANSION_CHUNK", "MAX_CHILDREN", "CompletedDecode", "MCTSDecoder",
    "SearchResult",
    "NEUTRAL_NOVELTY", "RecipeReward", "RewardBreakdown", "WEIGHTS",
]
