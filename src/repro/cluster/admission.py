"""Fleet-level admission: shed only when *every* replica is saturated.

The serving stack's one load-shedding gate.  A fleet has N queues, and
shedding while any replica still has headroom throws away capacity:
the router should *spill* to the least-loaded replica instead.  So the
gate works on the aggregate — it takes the per-replica queued-token
map the router maintains and answers "which replicas can take this
request?", raising :class:`~repro.resilience.OverloadShedError` (HTTP
503 + ``Retry-After``) only when the answer is none.  With one replica
(the default ``repro serve`` fleet) that is a plain single-queue gate.

The per-replica budget semantics:

* work is denominated in decode tokens (``max_new_tokens``);
* a replica is eligible while ``queued + cost <= watermark``;
* an *idle* replica admits one oversized request (a request larger
  than the watermark must not starve forever);
* ``Retry-After`` is the smallest backlog across replicas divided by
  the throughput hint — the soonest any replica should have room.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..obs import MetricsRegistry, get_registry
from ..resilience.admission import OverloadShedError

__all__ = ["ClusterAdmissionController"]


class ClusterAdmissionController:
    """Aggregate load-shedding gate over per-replica queued-token budgets.

    Parameters
    ----------
    watermark_tokens:
        Per-replica queued-work ceiling, or ``None`` to disable
        shedding (every replica is always eligible).
    tokens_per_second_hint:
        Rough per-replica decode throughput, used only to size the
        ``Retry-After`` hint.
    """

    def __init__(self, watermark_tokens: Optional[int] = None,
                 tokens_per_second_hint: float = 200.0,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if watermark_tokens is not None and watermark_tokens < 1:
            raise ValueError("watermark_tokens must be >= 1 or None")
        if tokens_per_second_hint <= 0:
            raise ValueError("tokens_per_second_hint must be > 0")
        self.watermark_tokens = watermark_tokens
        self.tokens_per_second_hint = tokens_per_second_hint
        registry = registry if registry is not None else get_registry()
        self._admitted = registry.counter(
            "cluster_admission_admitted_total",
            help="Requests admitted by the fleet-level gate")
        self._shed = registry.counter(
            "cluster_admission_shed_total",
            help="Requests shed with 503 because every replica was "
                 "past its watermark")

    def eligible(self, queued_by_replica: Dict[str, int],
                 cost_tokens: int,
                 record_admit: bool = True) -> List[str]:
        """Replica names with budget headroom for ``cost_tokens``.

        Raises :class:`OverloadShedError` when no replica qualifies —
        and only then; one under-watermark (or idle) replica is enough
        to admit.  ``record_admit=False`` makes a passing check an
        advisory probe (sheds still count — a shed probe IS the
        response the client gets).
        """
        if cost_tokens < 0:
            raise ValueError("cost_tokens must be >= 0")
        if not queued_by_replica:
            return []
        if self.watermark_tokens is None:
            if record_admit:
                self._admitted.inc()
            return list(queued_by_replica)
        under = [name for name, queued in queued_by_replica.items()
                 if queued + cost_tokens <= self.watermark_tokens]
        if not under:
            # Idle-oversized escape hatch, per replica: a request
            # bigger than the watermark is admitted by any replica
            # with nothing queued at all.
            under = [name for name, queued in queued_by_replica.items()
                     if queued == 0]
        if not under:
            retry_after = self._retry_after(queued_by_replica, cost_tokens)
            self._shed.inc()
            raise OverloadShedError(
                f"overloaded: all {len(queued_by_replica)} replica(s) past "
                f"the {self.watermark_tokens}-token watermark; retry in "
                f"~{retry_after}s", retry_after)
        if record_admit:
            self._admitted.inc()
        return under

    def _retry_after(self, queued_by_replica: Dict[str, int],
                     cost_tokens: int) -> int:
        assert self.watermark_tokens is not None
        backlog = min(
            max(queued + cost_tokens - self.watermark_tokens,
                queued - self.watermark_tokens // 2)
            for queued in queued_by_replica.values())
        return max(1, math.ceil(backlog / self.tokens_per_second_hint))

    def stats(self) -> Dict[str, Any]:
        return {
            "watermark_tokens": self.watermark_tokens,
            "admitted_total": self._admitted.value,
            "shed_total": self._shed.value,
        }
