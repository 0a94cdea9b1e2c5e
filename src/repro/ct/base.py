"""Connection-tracking (CT) table interfaces.

The CT module of Algorithm 1: ``CT[k]`` stores the chosen destination of a
tracked connection; ``NIL`` (None here) means untracked, evicted, or
destination-removed.  Real LBs bound the table and *evict* under pressure
(Section 5: "the eviction policy attempts to limit the CT table size by
heuristically evicting ... if these connections are still alive, it may
cause PCC violations").  We provide the paper's LRU policy plus FIFO and
random eviction for ablations, and an unbounded table for the trace
evaluations (Tables 1-2 let the CT "grow as needed").

All tables key on the pre-hashed 64-bit connection identifier, matching how
the CH modules consume keys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional, Tuple

import numpy as np

Destination = Hashable


@dataclass
class CTStats:
    """Counters a CT table maintains for evaluation.

    These plain ints are the *hot-loop* counters: the observability layer
    (:mod:`repro.obs`) never instruments per-packet paths directly but
    scrapes this object at snapshot boundaries (``repro_ct_*`` series,
    with ``peak_size`` surfaced as the occupancy high-water mark in
    ``SimResult.ct_peak_size`` / ``ReplayResult.ct_peak_size``).
    """

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0
    peak_size: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def credit_repeat_hits(ct: "ConnectionTracker", inserted_keys: np.ndarray) -> None:
    """Credit within-chunk repeats of just-inserted keys as CT hits.

    The columnar dataplane probes a whole chunk before inserting its
    misses, so packets of a flow that entered the table earlier *in the
    same chunk* probe as misses -- where the scalar spec (get, then put,
    per packet) counts them as hits.  Crediting ``occurrences - unique``
    of the insert batch here makes hit totals chunk-size-invariant and
    equal to the scalar loop.  Exact only because the columnar path is
    gated on ``batch_reorder_safe`` (unbounded tables): nothing can evict
    a just-inserted key before its same-chunk repeats.
    """
    repeats = len(inserted_keys) - len(np.unique(inserted_keys))
    if repeats:
        ct.stats.hits += repeats


def require_reorder_safe(ct: "ConnectionTracker", active_cleanup: bool) -> None:
    """Refuse a columnar (regrouped get/put) dispatch the table cannot serve.

    The columnar dataplane probes a whole chunk and then inserts its
    misses, which is only equal to the scalar spec on a table with no
    recency or eviction state (``batch_reorder_safe``) and under active
    cleanup (lazy validation interleaves a delete with each stale hit).
    Anything else must fail loudly rather than silently reorder.
    """
    if not (ct.batch_reorder_safe and active_cleanup):
        raise TypeError(
            f"columnar dispatch needs a reorder-safe CT with active cleanup; "
            f"got {type(ct).__name__} (active_cleanup={active_cleanup})"
        )


class ConnectionTracker(ABC):
    """A destination cache keyed by connection identifier hash."""

    #: True when batched get/put may regroup per-key operations (all gets,
    #: then all puts) without changing future behaviour.  Only tables with
    #: no recency or eviction state can promise this, and only those carry
    #: the columnar ``*_idx`` entry points (:class:`~repro.ct.UnboundedCT`);
    #: bounded tables keep it False and are served by the scalar loop, so
    #: eviction order is preserved exactly.
    batch_reorder_safe = False

    def __init__(self) -> None:
        self.stats = CTStats()

    @abstractmethod
    def get(self, key: int) -> Optional[Destination]:
        """Return the tracked destination, or None if untracked."""

    @abstractmethod
    def put(self, key: int, destination: Destination) -> None:
        """Track ``key``'s destination, evicting if the table is full."""

    @abstractmethod
    def delete(self, key: int) -> bool:
        """Forget ``key``; True if it was tracked."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of tracked connections."""

    @abstractmethod
    def __iter__(self) -> Iterator[int]:
        """Iterate over tracked keys (no particular order guaranteed)."""

    def items(self) -> Iterator[Tuple[int, Destination]]:
        """Iterate ``(key, destination)`` pairs without touching stats or
        recency state.

        The default composes :meth:`__iter__` with :meth:`peek` (one
        method call per entry); dict-backed tables override it with a
        single table scan, which is what makes active cleanup cheap.
        """
        for key in self:
            yield key, self.peek(key)

    def invalidate_destination(self, destination: Destination) -> int:
        """Drop every entry pointing at ``destination``.

        Footnote 3 of the paper: when a working server is removed, all of
        its connections are inevitably broken and the table "can be cleaned
        from such connections (in an active or a lazy manner)".  This is the
        active variant -- one :meth:`items` scan; returns the number of
        entries dropped.
        """
        victims = [key for key, dest in self.items() if dest == destination]
        for key in victims:
            self.delete(key)
        self.stats.invalidations += len(victims)
        return len(victims)

    @abstractmethod
    def peek(self, key: int) -> Optional[Destination]:
        """Like :meth:`get` but without touching stats or recency state."""

    def _note_size(self) -> None:
        size = len(self)
        if size > self.stats.peak_size:
            self.stats.peak_size = size
