"""Unbounded CT table: a plain dict, never evicts.

Used by the trace evaluations (Tables 1-2), where the paper lets the CT
"grow as needed (i.e., no flows are evicted from CT)" to isolate tracking
volume from eviction effects.

The dict stays the source of truth and the scalar entry points are
unchanged (they are the executable spec).  For the columnar dataplane the
table additionally maintains a numpy *mirror* -- an open-addressing
linear-probe hash (uint64 keys, int32 values) -- so ``get_batch_idx`` is
a vectorized probe (~7 ns/key vs ~80 ns/key for dict probing, the single
biggest term in the 10M pps replay budget).  Scalar mutations just mark
the mirror dirty; it is rebuilt lazily from the dict on the next batch
probe, so correctness never depends on the mirror being current.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.ct.base import ConnectionTracker, Destination

#: Fibonacci multiplier for multiply-shift slot hashing.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
#: Mirror slots with key 0 are empty; a real key 0 lives in the dict only.
_EMPTY = np.uint64(0)


class UnboundedCT(ConnectionTracker):
    """Dictionary-backed CT with no capacity limit."""

    # No recency/eviction state: batched gets and puts may be regrouped.
    batch_reorder_safe = True

    def __init__(self) -> None:
        super().__init__()
        self._table: Dict[int, Destination] = {}
        # Open-addressing mirror (only valid when not dirty; values are
        # the int backend-ids of index mode -- see below).
        self._mirror_keys: Optional[np.ndarray] = None
        self._mirror_vals: Optional[np.ndarray] = None
        self._mirror_used = 0
        self._mirror_shift = np.uint64(58)
        self._mirror_dirty = True

    def get(self, key: int) -> Optional[Destination]:
        self.stats.lookups += 1
        destination = self._table.get(key)
        if destination is not None:
            self.stats.hits += 1
        return destination

    def put(self, key: int, destination: Destination) -> None:
        if key not in self._table:
            self.stats.inserts += 1
        self._table[key] = destination
        self._mirror_dirty = True
        self._note_size()

    # ------------------------------------------------- integer-index mode
    # The columnar dataplane stores destinations as small ints (LB-local
    # backend ids, see repro.core.indexing) instead of names.  A balancer
    # switches the table to index mode by remapping the stored values
    # once (:meth:`remap_values`); from then on the ``*_idx`` entry
    # points move int32 arrays with -1 as the miss sentinel.  Only this
    # table has them: it is the only one whose gets and puts may be
    # regrouped (``batch_reorder_safe``).

    def get_batch_idx(self, keys: np.ndarray) -> np.ndarray:
        """Tracked destination *ids* for a uint64 key array (-1 per miss).

        Semantically ``[get(k) for k in keys]`` with ``None -> -1`` for an
        index-mode table, stats totals included (updated once per batch);
        implemented as a vectorized probe of the numpy mirror.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        out = np.full(n, -1, dtype=np.int32)
        if n:
            if self._mirror_dirty:
                self._rebuild_mirror()
            mirror_keys = self._mirror_keys
            mirror_vals = self._mirror_vals
            wrap = np.intp(len(mirror_keys) - 1)
            with np.errstate(over="ignore"):
                slots = ((keys * _GAMMA) >> self._mirror_shift).astype(np.intp)
            pending = np.arange(n, dtype=np.intp)
            while pending.size:
                at = slots[pending]
                resident = mirror_keys[at]
                match = resident == keys[pending]
                if match.any():
                    out[pending[match]] = mirror_vals[at[match]]
                probing = ~match & (resident != _EMPTY)
                if not probing.any():
                    break
                pending = pending[probing]
                slots[pending] = (at[probing] + 1) & wrap
            # Key 0 collides with the empty sentinel: dict side-channel.
            zero = keys == _EMPTY
            if zero.any():
                tracked = self._table.get(0)
                if tracked is not None:
                    out[zero] = tracked
        self.stats.lookups += n
        self.stats.hits += int((out >= 0).sum())
        return out

    def put_batch_idx(self, keys: np.ndarray, ids: np.ndarray) -> None:
        """Track every ``(key, id)`` pair, in array order.

        The dict is updated first (authoritative, counts inserts); the
        mirror absorbs the same pairs incrementally when it is current, or
        stays dirty for a lazy rebuild when it is not (or would exceed its
        load factor).
        """
        keys = np.asarray(keys, dtype=np.uint64)
        ids = np.asarray(ids, dtype=np.int32)
        table = self._table
        inserts = 0
        for k, v in zip(keys.tolist(), ids.tolist()):
            if k not in table:
                inserts += 1
            table[k] = v
        self.stats.inserts += inserts
        self._note_size()
        if self._mirror_dirty:
            return
        if 5 * (self._mirror_used + len(keys)) > 3 * len(self._mirror_keys):
            self._mirror_dirty = True  # would breach 0.6 load: rebuild lazily
            return
        nonzero = keys != _EMPTY
        if not nonzero.all():
            keys = keys[nonzero]
            ids = ids[nonzero]
        self._mirror_insert(keys, ids)

    def remap_values(self, fn) -> None:
        """Re-encode every stored destination through ``fn`` in place.

        Used exactly once per table when a balancer's columnar path first
        engages (name -> backend id); stats and the key set are untouched.
        """
        table = self._table
        for key in table:
            table[key] = fn(table[key])
        self._mirror_dirty = True

    def _rebuild_mirror(self) -> None:
        """Rebuild the open-addressing mirror from the dict (load < 0.4)."""
        count = len(self._table)
        size = 64
        while 3 * size < 8 * (count + 1):
            size <<= 1
        self._mirror_keys = np.zeros(size, dtype=np.uint64)
        self._mirror_vals = np.full(size, -1, dtype=np.int32)
        self._mirror_shift = np.uint64(64 - (size.bit_length() - 1))
        self._mirror_used = 0
        self._mirror_dirty = False
        if count:
            keys = np.fromiter(self._table.keys(), dtype=np.uint64, count=count)
            vals = np.fromiter(self._table.values(), dtype=np.int32, count=count)
            nonzero = keys != _EMPTY
            self._mirror_insert(keys[nonzero], vals[nonzero])

    def _mirror_insert(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Vectorized linear-probe insert (keys nonzero, capacity ensured).

        Within-batch duplicate keys resolve to the last occurrence, like
        the dict: the first occurrence claims the empty slot (unique-
        winner rule), later duplicates re-probe, match it, and overwrite
        (numpy fancy assignment applies duplicates in array order).
        """
        mirror_keys = self._mirror_keys
        mirror_vals = self._mirror_vals
        wrap = np.intp(len(mirror_keys) - 1)
        with np.errstate(over="ignore"):
            slots = ((keys * _GAMMA) >> self._mirror_shift).astype(np.intp)
        pending = np.arange(len(keys), dtype=np.intp)
        while pending.size:
            at = slots[pending]
            resident = mirror_keys[at]
            match = resident == keys[pending]
            if match.any():
                mirror_vals[at[match]] = vals[pending[match]]
            empty = resident == _EMPTY
            claimed = np.zeros(len(pending), dtype=bool)
            if empty.any():
                contenders = np.flatnonzero(empty)
                _, first = np.unique(at[contenders], return_index=True)
                winners = contenders[first]
                winner_slots = at[winners]
                mirror_keys[winner_slots] = keys[pending[winners]]
                mirror_vals[winner_slots] = vals[pending[winners]]
                self._mirror_used += len(winners)
                claimed[winners] = True
            # Advance only true collisions; claim losers retry the same
            # slot (it now holds a key: theirs -> match, other -> advance).
            collide = ~match & ~empty
            if collide.any():
                slots[pending[collide]] = (at[collide] + 1) & wrap
            pending = pending[~match & ~claimed]

    # ----------------------------------------------------------- plumbing
    def delete(self, key: int) -> bool:
        removed = self._table.pop(key, None) is not None
        if removed:
            self._mirror_dirty = True
        return removed

    def peek(self, key: int) -> Optional[Destination]:
        return self._table.get(key)

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[int]:
        return iter(list(self._table))

    def items(self) -> Iterator[Tuple[int, Destination]]:
        return iter(list(self._table.items()))
