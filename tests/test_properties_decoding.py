"""Hypothesis property tests for repro.decoding (marker: property).

The three invariants the subsystem's guarantees rest on:

* **The grammar FSM never dead-ends.**  Whatever token an adversary
  picks from the allowed set, at every step there is at least one
  allowed token, and the walk closes the recipe within any legal
  budget.
* **Constrained outputs round-trip.**  A masked decode appended to a
  prompt always parses back into a recipe with a title and at least
  one instruction — the "100% parse-valid" half of the benchmark gate,
  quantified over adversarial token choices rather than model samples.
* **Seeded MCTS is bit-identical.**  The same seed yields the same
  tokens, the same reward and the same tree statistics across two
  independent searches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decoding import (CompletedDecode, GrammarMask, MCTSDecoder,
                            MIN_BUDGET, RecipeGrammar)
from repro.decoding.grammar import S_DONE
from repro.decoding.reward import RewardBreakdown
from repro.models import GenerationConfig
from repro.preprocess import preprocess
from repro.preprocess.formatting import parse_recipe
from repro.recipedb import generate_corpus
from repro.tokenizers import WordTokenizer

pytestmark = pytest.mark.property

_TOKENIZER = None
_GRAMMAR = None


def _grammar():
    # Built lazily once; hypothesis re-enters the test many times and
    # function-scoped fixtures are off-limits under @given.
    global _TOKENIZER, _GRAMMAR
    if _GRAMMAR is None:
        texts, _ = preprocess(generate_corpus(30, seed=31))
        _TOKENIZER = WordTokenizer(texts)
        _GRAMMAR = RecipeGrammar(_TOKENIZER)
    return _TOKENIZER, _GRAMMAR


class TestGrammarNeverDeadEnds:
    @given(budget=st.integers(MIN_BUDGET, 48), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_adversarial_walks_always_close(self, budget, data):
        tokenizer, grammar = _grammar()
        mask = GrammarMask(grammar, max_new_tokens=budget)
        history = []
        for step in range(budget):
            allowed = mask.allowed_ids(history)
            assert allowed.size >= 1, f"dead end at step {step}"
            pick = data.draw(st.integers(0, allowed.size - 1),
                             label=f"step{step}")
            history.append(int(allowed[pick]))
            if history[-1] == tokenizer.eos_id:
                break
        # Wherever the adversary steered, the automaton reached the
        # absorbing state within the budget.
        state = mask._start_state
        for token in history:
            state = grammar.advance(state, token)
        assert state == S_DONE

    @given(budget=st.integers(MIN_BUDGET, 32),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_masked_decodes_round_trip_through_the_parser(self, budget, seed):
        tokenizer, grammar = _grammar()
        mask = GrammarMask(grammar, max_new_tokens=budget)
        rng = np.random.default_rng(seed)
        history = []
        for _ in range(budget):
            logits = rng.normal(size=tokenizer.vocab_size)
            history.append(int(np.argmax(mask(logits, history))))
            if history[-1] == tokenizer.eos_id:
                break
        text = ("<RECIPE_START> <INGR_START> onion <INGR_END> "
                "<INSTR_START> " + tokenizer.decode(history))
        parsed = parse_recipe(text)
        assert parsed.title
        assert parsed.instructions


class TestSeededSearchDeterminism:
    @staticmethod
    def _decoder():
        # A deterministic pseudo-model: rollout tokens and rewards are
        # pure functions of (prompt, config), standing in for the real
        # engine whose determinism is covered by the serving tests.
        def submit(prompt, config, processors, deadline_ms):
            rng = np.random.default_rng(
                (config.seed * 31 + len(prompt)) % (2**31))
            n = rng.integers(MIN_BUDGET, config.max_new_tokens + 1)
            return CompletedDecode(rng.integers(4, 40, size=n))

        def reward(ids):
            total = (sum(ids) % 997) / 997.0
            return RewardBreakdown(total=total,
                                   components={"format": total})

        return MCTSDecoder(submit=submit,
                           build_processors=lambda preamble, budget: [],
                           reward=reward)

    @given(seed=st.integers(0, 2**16),
           rollouts=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_same_seed_same_search(self, seed, rollouts):
        config = GenerationConfig(max_new_tokens=24, strategy="mcts",
                                  seed=seed, mcts_rollouts=rollouts)
        first = self._decoder().search([1, 2, 3], config)
        second = self._decoder().search([1, 2, 3], config)
        assert first.tokens == second.tokens
        assert first.reward.as_dict() == second.reward.as_dict()
        assert first.rollouts == second.rollouts
        assert first.nodes_expanded == second.nodes_expanded
        assert (first.prompt_tokens_submitted
                == second.prompt_tokens_submitted)
