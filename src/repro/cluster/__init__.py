"""``repro.cluster`` — a replicated serving fleet behind one router.

N >= 1 :class:`~repro.serving.InferenceEngine` replicas — the
backend's only serving topology; a single engine is a fleet of one —
each supervised and each with an isolated prefix cache, behind a
:class:`Router` that does cache-aware prefix-affinity placement (a
fleet-wide :class:`FleetCacheIndex` of published prefixes, falling
back to consistent hashing over the prompt's leading chunk),
balance-of-two spill under saturation, read-through cross-replica KV
borrowing, fleet-level admission control, transparent bit-identical
failover, a degraded sequential fallback, and rolling drain → swap →
readmit operations.  See ``docs/CLUSTER.md``.
"""

from .admission import ClusterAdmissionController
from .fleet_cache import FleetCacheIndex
from .router import (ClusterConfig, ClusterRequest, NoReplicaAvailableError,
                     Router)

__all__ = [
    "ClusterAdmissionController",
    "ClusterConfig",
    "ClusterRequest",
    "FleetCacheIndex",
    "NoReplicaAvailableError",
    "Router",
]
