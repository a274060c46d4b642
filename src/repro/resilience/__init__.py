"""Resilience: deadlines, load shedding, supervision, fault injection.

The serving stack built in earlier PRs is fast but brittle: a slow
request holds its HTTP worker forever, overload grows the queue without
bound, and a dead engine thread strands every in-flight caller.  This
package adds the failure-handling layer:

- :mod:`repro.resilience.faults` — deterministic fault injection at
  named failure points (``fault_check``), driving the chaos suite;
- :mod:`repro.resilience.admission` — :class:`OverloadShedError`, the
  503 + ``Retry-After`` answer of the fleet's load-shedding gate
  (:class:`repro.cluster.ClusterAdmissionController`);
- :mod:`repro.resilience.supervisor` — engine watchdog with bounded
  restarts, plus the sequential decoder the router degrades to.

Request *deadlines* live in the engine itself
(:class:`repro.serving.DeadlineExceededError` carries the partial
generation) and in :meth:`repro.webapp.jobs.JobQueue.wait`; this
package configures them via :class:`ResilienceConfig`.

Import note: :mod:`.supervisor` imports :mod:`repro.serving`, which in
turn imports :func:`.faults.fault_check` from here — so this package
eagerly exposes only ``faults`` and ``admission`` and resolves the
supervisor names lazily (PEP 562) to keep the import graph acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .admission import OverloadShedError
from .faults import (FAULT_POINTS, FaultInjector, FaultSpec, InjectedFault,
                     fault_check, get_fault_injector, inject_faults,
                     set_fault_injector)

_SUPERVISOR_EXPORTS = (
    "EngineSupervisor",
    "EngineUnavailableError",
    "sequential_fallback",
)

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "OverloadShedError",
    "ResilienceConfig",
    "fault_check",
    "get_fault_injector",
    "inject_faults",
    "set_fault_injector",
    *_SUPERVISOR_EXPORTS,
]


@dataclass
class ResilienceConfig:
    """Knobs the serving entrypoints (`repro serve`, tests) wire up.

    ``None`` / ``False`` values disable the corresponding pillar, so a
    default-constructed config is inert and a backend built without one
    behaves exactly as before this layer existed.
    """

    #: Deadline applied to requests that do not send ``deadline_ms``.
    default_deadline_ms: Optional[float] = None
    #: Queued-work ceiling for admission control (tokens); None = off.
    shed_watermark_tokens: Optional[int] = None
    #: Decode-rate hint used for ``Retry-After`` estimates.
    tokens_per_second_hint: float = 200.0
    #: Restart budget and backoff for each replica's supervisor.
    max_restarts: int = 3
    restart_backoff_seconds: float = 0.05
    #: Serve sequential degraded responses when no replica can.
    degraded_fallback: bool = False

    def __post_init__(self) -> None:
        if (self.default_deadline_ms is not None
                and self.default_deadline_ms <= 0):
            raise ValueError("default_deadline_ms must be > 0")
        if (self.shed_watermark_tokens is not None
                and self.shed_watermark_tokens < 1):
            raise ValueError("shed_watermark_tokens must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.restart_backoff_seconds < 0:
            raise ValueError("restart_backoff_seconds must be >= 0")


def __getattr__(name: str) -> Any:
    if name in _SUPERVISOR_EXPORTS:
        from . import supervisor

        return getattr(supervisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
