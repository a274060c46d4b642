"""Start ``repro serve`` from the checkout's ``src/``, optionally traced.

    python3 perfbench/launch.py [--trace-out FILE] -- serve --checkpoint ...

Untraced, this is exactly ``python -m repro.cli <args>``.  With
``--trace-out``, public functions at each layer boundary are wrapped
*before* the server is built; every call records a span (name, thread,
start, end, parent on the same thread, optional tag) in memory.  When
the server exits -- ``repro serve`` shuts down gracefully on SIGTERM --
the spans are written to FILE as JSON lines.  Nothing under ``src/``
changes; times come from ``time.monotonic``, which every process on
the host shares, so the benchmark can cut its measured round out of
the record.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class Recorder:
    """Append-only span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        return span_id, parent, time.monotonic()

    def close(self, name: str, opened, tag=None) -> None:
        span_id, parent, start = opened
        end = time.monotonic()
        self._stack().pop()
        self.spans.append((span_id, parent, name, threading.get_ident(),
                           start, end, tag))

    def wrap_call(self, func, name: str, tag=None):
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            opened = recorder.open()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                recorder.close(name, opened,
                               tag(args, result) if tag else None)
        return traced

    def wrap_iter(self, iterable, name: str):
        """Span each ``next()``: time a consumer spends blocked on it."""
        iterator = iter(iterable)
        while True:
            opened = self.open()
            try:
                item = next(iterator)
            except StopIteration:
                self.close(name, opened)
                return
            except BaseException:
                self.close(name, opened)
                raise
            self.close(name, opened)
            yield item

    def wrap_stream(self, stream, name: str):
        """One span over a whole SSE body, writes between chunks included.

        A generator body first runs at the first ``next()``, so the
        span opens when the server starts pulling events."""
        opened = self.open()
        try:
            yield from stream
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()
            self.close(name, opened)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _families(base):
    """``base`` and every loaded subclass, depth first."""
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _patch(recorder: Recorder, base, attr: str, name: str, tag=None) -> None:
    for cls in _families(base):
        if attr in cls.__dict__:
            setattr(cls, attr, recorder.wrap_call(cls.__dict__[attr], name,
                                                  tag))


def _size_of_first(args, _result):
    import numpy as np
    return int(np.asarray(args[1]).size)


def _status_of(_args, result):
    return getattr(result, "status", None)


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries the benchmark attributes time to."""
    from repro.cluster.router import ClusterRequest, Router
    from repro.core import Ratatouille
    from repro.decoding import GrammarMask, MCTSDecoder, RecipeReward
    from repro.models.base import LanguageModel
    from repro.models.speculative import DraftModel
    from repro.resilience import EngineSupervisor
    from repro.retrieval import RecipeIndex
    from repro.serving import InferenceEngine
    from repro.tokenizers.base import Tokenizer
    from repro.webapp.framework import App, Response

    # Import every model family so subclass overrides get wrapped too.
    import repro.models  # noqa: F401

    _patch(recorder, App, "dispatch", "webapp.dispatch", _status_of)
    _patch(recorder, Ratatouille, "prepare_prompt", "core.prepare_prompt")
    _patch(recorder, Ratatouille, "finish_recipe", "core.finish_recipe")
    _patch(recorder, RecipeIndex, "search_ingredients", "retrieval.search")
    _patch(recorder, RecipeIndex, "novelty", "retrieval.novelty")
    _patch(recorder, Router, "submit", "cluster.submit")
    _patch(recorder, Router, "generate", "cluster.generate")
    _patch(recorder, EngineSupervisor, "submit", "resilience.submit")
    _patch(recorder, EngineSupervisor, "generate_ex",
           "resilience.generate_ex")
    _patch(recorder, InferenceEngine, "submit", "serving.submit")
    _patch(recorder, LanguageModel, "next_logits", "models.next_logits")
    _patch(recorder, LanguageModel, "prefill", "models.prefill",
           _size_of_first)
    _patch(recorder, LanguageModel, "prefill_stacked",
           "models.prefill_stacked", _size_of_first)
    _patch(recorder, LanguageModel, "verify_chunk", "models.verify_chunk")
    _patch(recorder, DraftModel, "propose", "spec.propose")
    _patch(recorder, DraftModel, "propose_sampled", "spec.propose")
    _patch(recorder, GrammarMask, "__call__", "decoding.mask")
    _patch(recorder, MCTSDecoder, "search", "decoding.mcts")
    _patch(recorder, RecipeReward, "__call__", "decoding.reward")
    _patch(recorder, Tokenizer, "decode", "tokenizers.decode")

    # Waiting for the engine is not the stream's own work.
    tokens = ClusterRequest.tokens

    def traced_tokens(self, *args, **kwargs):
        return recorder.wrap_iter(tokens(self, *args, **kwargs),
                                  "wait.tokens")
    ClusterRequest.tokens = traced_tokens

    event_stream = Response.event_stream.__func__

    def traced_event_stream(cls, events, status=200):
        response = event_stream(cls, events, status)
        response.stream = recorder.wrap_stream(response.stream,
                                               "webapp.stream")
        return response
    Response.event_stream = classmethod(traced_event_stream)


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    trace_out = None
    if argv and argv[0] == "--trace-out":
        trace_out, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    recorder = None
    if trace_out is not None:
        recorder = Recorder()
        install(recorder)
    from repro.cli import main as cli_main
    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
