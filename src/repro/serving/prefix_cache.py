"""Prefix KV-cache: a token-trie with an LRU byte budget.

Recipe prompts share long prefixes — every Ratatouille request starts
with the same control tokens and ingredient-list scaffold — so the
engine snapshots decoder state (KV caches + last-position logits)
keyed on the prompt-token prefix and replays the deepest stored
ancestor instead of re-running prefill from scratch.

Correctness constraint (see ``docs/SERVING.md``): float rounding in
the numpy/BLAS stack depends on the exact gemm shapes, so a cache hit
is only *bit-reproducible* if resuming from it issues exactly the same
trunk calls a cold run would.  :func:`repro.models.prefill_prompt`
splits prompts at absolute multiples of the chunk size, therefore a
stored prefix is only eligible when its depth is a chunk multiple —
or when it matches the whole query, in which case no prefill runs at
all.  Construct with ``chunk_size=None`` to disable that gate (useful
for models whose prefill is an exact per-token loop).

Fleet hooks (see ``docs/CLUSTER.md``): a cache can carry a
``listener`` that is told about inserts and evictions so a
fleet-global index (:class:`repro.cluster.FleetCacheIndex`) can track
which replica holds which prefix.  Entries inserted with
``borrowed=True`` are read-through copies fetched from another
replica's cache — they serve lookups normally but are excluded from
:meth:`entries_snapshot` so the spill layer never persists the same
snapshot twice (the owning replica spills it).  Entries can be
leased with :meth:`pin` / :meth:`unpin` (a refcount): the LRU prefers
evicting unpinned entries, so a prefix another replica is borrowing
survives cold-traffic churn while the borrow is in flight (the byte
budget still wins — when only pinned entries remain, the oldest
pinned entry is evicted rather than overflowing).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple


class _Node:
    """One trie node; ``has_entry`` marks a stored snapshot at this depth."""

    __slots__ = ("children", "parent", "token", "has_entry")

    def __init__(self, parent: Optional["_Node"] = None,
                 token: Optional[int] = None) -> None:
        self.children: Dict[int, "_Node"] = {}
        self.parent = parent
        self.token = token
        self.has_entry = False


@dataclass
class _Entry:
    value: Any
    nbytes: int
    node: _Node
    borrowed: bool = False
    #: Outstanding leases (:meth:`PrefixCache.pin`); > 0 means pinned.
    pins: int = 0


@dataclass
class PrefixCacheStats:
    """Point-in-time counters; ``snapshot()`` returns a plain dict."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0
    hit_tokens: int = 0
    lookup_tokens: int = 0
    bytes: int = 0
    entries: int = 0

    def as_dict(self) -> Dict[str, float]:
        lookups = self.hits + self.misses
        return {
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "rejected": self.rejected,
            "hit_tokens": self.hit_tokens,
            "lookup_tokens": self.lookup_tokens,
            "bytes": self.bytes,
            "entries": self.entries,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            # Token-denominated reuse: of every prompt token looked up,
            # the fraction served from a stored snapshot.  Computed here
            # — under the same lock as the raw counters via
            # ``stats_snapshot`` — so fleet aggregation never mixes a
            # numerator and denominator from two points in time.
            "hit_token_rate": (self.hit_tokens / self.lookup_tokens
                               if self.lookup_tokens else 0.0),
        }

    # Kept for callers that predate ``as_dict``; same unsynchronised
    # read — use :meth:`PrefixCache.stats_snapshot` for an atomic copy.
    snapshot = as_dict


class PrefixCache:
    """LRU map from token prefixes to opaque snapshots, budgeted in bytes.

    Invariants (property-tested in ``tests/test_serving_prefix_cache.py``):

    * total stored bytes never exceed ``max_bytes``;
    * an entry larger than the whole budget is rejected outright;
    * evicted entries are never returned by :meth:`lookup`;
    * :meth:`lookup` returns the deepest *eligible* stored prefix of
      the query and refreshes its LRU recency.

    ``listener`` (optional) receives ``on_insert(key)`` /
    ``on_evict(key)`` / ``on_clear()`` callbacks *while the cache lock
    is held* — listeners must be leaf objects (e.g. the fleet index
    publisher) that never call back into any cache.
    """

    def __init__(self, max_bytes: int,
                 chunk_size: Optional[int] = None) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 or None")
        self.max_bytes = max_bytes
        self.chunk_size = chunk_size
        self.listener: Optional[Any] = None
        self._root = _Node()
        self._entries: "OrderedDict[Tuple[int, ...], _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = PrefixCacheStats()

    # ------------------------------------------------------------------
    def _eligible(self, depth: int, query_len: int) -> bool:
        if self.chunk_size is None:
            return True
        return depth == query_len or depth % self.chunk_size == 0

    def _notify(self, event: str, key: Optional[Tuple[int, ...]]) -> None:
        listener = self.listener
        if listener is None:
            return
        try:
            if event == "insert":
                listener.on_insert(key)
            elif event == "evict":
                listener.on_evict(key)
            else:
                listener.on_clear()
        except Exception:  # noqa: BLE001 - index drift, never a cache fault
            pass

    def insert(self, tokens: Iterable[int], value: Any, nbytes: int,
               borrowed: bool = False) -> bool:
        """Store ``value`` for the exact token path; returns False if rejected.

        ``borrowed=True`` marks the entry as a read-through copy of
        another cache's snapshot: it serves lookups normally but is
        skipped by :meth:`entries_snapshot` (the owner spills it).  A
        later owned insert of the same key upgrades it in place.
        """
        key = tuple(int(t) for t in tokens)
        if not key:
            raise ValueError("cannot cache an empty prefix")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        with self._lock:
            if nbytes > self.max_bytes:
                self.stats.rejected += 1
                return False
            existing = self._entries.get(key)
            if existing is not None:
                self.stats.bytes -= existing.nbytes
                existing.value = value
                existing.nbytes = nbytes
                # An owned re-insert upgrades a borrowed copy; a borrow
                # never downgrades an owned entry (the local snapshot is
                # the same bytes and already spill-eligible).
                existing.borrowed = existing.borrowed and borrowed
                self._entries.move_to_end(key)
            else:
                node = self._root
                for token in key:
                    child = node.children.get(token)
                    if child is None:
                        child = _Node(parent=node, token=token)
                        node.children[token] = child
                    node = child
                node.has_entry = True
                self._entries[key] = _Entry(value=value, nbytes=nbytes,
                                            node=node, borrowed=borrowed)
                self.stats.entries += 1
            self.stats.bytes += nbytes
            while self.stats.bytes > self.max_bytes:
                self._evict_lru()
            if key in self._entries:
                self._notify("insert", key)
            return True

    def lookup(self, tokens: Iterable[int]) -> Tuple[int, Any]:
        """Deepest eligible stored prefix of ``tokens``.

        Returns ``(depth, value)``; ``(0, None)`` on a miss.
        """
        key = tuple(int(t) for t in tokens)
        with self._lock:
            self.stats.lookup_tokens += len(key)
            best_depth = 0
            node = self._root
            for depth, token in enumerate(key, start=1):
                node = node.children.get(token)
                if node is None:
                    break
                if node.has_entry and self._eligible(depth, len(key)):
                    best_depth = depth
            if best_depth == 0:
                self.stats.misses += 1
                return 0, None
            hit_key = key[:best_depth]
            entry = self._entries[hit_key]
            self._entries.move_to_end(hit_key)
            self.stats.hits += 1
            self.stats.hit_tokens += best_depth
            return best_depth, entry.value

    def match_depth(self, tokens: Iterable[int]) -> int:
        """Deepest eligible stored depth for ``tokens`` — read-only.

        Unlike :meth:`lookup` this touches neither the stats nor the
        LRU order, so placement probes (``Router._maybe_borrow``) can
        ask "would this cache hit, and how deep?" without skewing
        hit-rate accounting.
        """
        key = tuple(int(t) for t in tokens)
        with self._lock:
            best_depth = 0
            node = self._root
            for depth, token in enumerate(key, start=1):
                node = node.children.get(token)
                if node is None:
                    break
                if node.has_entry and self._eligible(depth, len(key)):
                    best_depth = depth
            return best_depth

    def peek(self, tokens: Iterable[int]) -> Optional[Tuple[Any, int]]:
        """Exact-key fetch as ``(value, nbytes)`` — no stats, no LRU touch.

        The cross-replica borrow path reads the owner's snapshot with
        this: the fetch must not count as a hit on the owner (no
        request was served there) nor refresh recency on the owner's
        LRU beyond what :meth:`pin` already protects.
        """
        key = tuple(int(t) for t in tokens)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            return entry.value, entry.nbytes

    def pin(self, tokens: Iterable[int]) -> bool:
        """Take one lease on an exact entry; returns False if absent.

        Pinned entries (at least one lease outstanding) are evicted
        only when no unpinned entry remains — the byte budget is never
        exceeded, but a prefix another replica is borrowing outlives
        cold-traffic churn.  Every successful ``pin`` must be paired
        with one :meth:`unpin` when the borrowing request retires.
        """
        return self._adjust_pins(tokens, +1)

    def unpin(self, tokens: Iterable[int]) -> bool:
        """Release one lease taken by :meth:`pin`; False if absent."""
        return self._adjust_pins(tokens, -1)

    def _adjust_pins(self, tokens: Iterable[int], delta: int) -> bool:
        key = tuple(int(t) for t in tokens)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            entry.pins = max(0, entry.pins + delta)
            return True

    def pinned_count(self) -> int:
        """Entries currently holding at least one lease."""
        with self._lock:
            return sum(1 for entry in self._entries.values()
                       if entry.pins > 0)

    # ------------------------------------------------------------------
    def _evict_lru(self) -> None:
        victim_key = None
        for key, entry in self._entries.items():  # LRU -> MRU order
            if entry.pins == 0:
                victim_key = key
                break
        if victim_key is None:
            # Everything is pinned: the budget invariant outranks the
            # pin hint — evict the oldest pinned entry.
            victim_key = next(iter(self._entries))
        entry = self._entries.pop(victim_key)
        self.stats.bytes -= entry.nbytes
        self.stats.entries -= 1
        self.stats.evictions += 1
        node = entry.node
        node.has_entry = False
        # Prune now-empty branches so the trie does not leak nodes.
        while (node.parent is not None and not node.children
               and not node.has_entry):
            parent = node.parent
            del parent.children[node.token]
            node.parent = None
            node = parent
        self._notify("evict", victim_key)

    def entries_snapshot(self, include_borrowed: bool = False
                         ) -> "list[Tuple[Tuple[int, ...], Any, int]]":
        """Owned entries as ``(key, value, nbytes)``, oldest (LRU) first.

        Taken under the cache lock so the spill layer
        (:class:`repro.durability.CacheSpill`) sees a consistent cut;
        re-inserting the tuples in order reproduces the LRU ordering.
        Borrowed entries are excluded by default — the replica that
        owns the snapshot spills it, so a borrowed copy must never be
        persisted a second time (``include_borrowed=True`` lifts the
        filter for introspection).
        """
        with self._lock:
            return [(key, entry.value, entry.nbytes)
                    for key, entry in self._entries.items()
                    if include_borrowed or not entry.borrowed]

    def stats_snapshot(self) -> Dict[str, float]:
        """Atomic copy of the counters, taken under the cache lock.

        The metrics path must use this rather than reading
        ``self.stats`` fields directly: a concurrent insert/evict can
        otherwise interleave between field reads and a dashboard
        aggregating per-replica caches would mix counters from two
        different points in time.
        """
        with self._lock:
            return self.stats.as_dict()

    def clear(self) -> None:
        with self._lock:
            self._root = _Node()
            self._entries.clear()
            self.stats.bytes = 0
            self.stats.entries = 0
            self._notify("clear", None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, tokens: Iterable[int]) -> bool:
        key = tuple(int(t) for t in tokens)
        with self._lock:
            return key in self._entries
