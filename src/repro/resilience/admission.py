"""Admission control's named error: shed load *before* it queues.

An unprotected serving queue converts overload into unbounded latency:
every admitted request waits behind all earlier ones, so at 4x offered
load the p99 grows without limit while throughput stays flat.  The fix
is a load-shedding gate that answers *immediately* with 503 +
``Retry-After`` beyond a high-water mark of queued decode tokens, so
the requests that are admitted still meet their latency targets.

The gate itself is :class:`~repro.cluster.ClusterAdmissionController`,
which the :class:`~repro.cluster.Router` consults on every dispatch
(a single engine is a fleet of one).  This module holds only the error
it raises, so layers below the cluster can name it without importing
the router.  Verified by ``benchmarks/run_overload_shedding.py``.
"""

from __future__ import annotations


class OverloadShedError(RuntimeError):
    """Request refused by admission control (HTTP layer: 503).

    ``retry_after`` is the client hint, in whole seconds, for when the
    queued backlog should have drained.
    """

    def __init__(self, message: str, retry_after: int) -> None:
        super().__init__(message)
        self.retry_after = retry_after
