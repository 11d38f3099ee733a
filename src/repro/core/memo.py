"""Process-wide memoization of per-block DP search results.

The engine-level compile cache (:class:`repro.engine.Engine`) and the
scheduler's per-instance block cache both die with their owner.  In a serving
process, however, the same blocks are searched again and again from *fresh*
owners: every new :class:`~repro.serve.registry.ScheduleRegistry` builds its
own engines, every engine builds its own scheduler, and a batch-size ladder
(``b=1..16``) compiles one model many times.  The :class:`ScheduleMemo` below
is the process-wide layer underneath all of them: it maps

    (cost-model signature, block structural fingerprint) -> (stages, stats)

so any scheduler in the process whose cost model is *observationally
identical* (same device and kernel profile) reuses a finished block search
instead of re-running it.

The cost-model signature (:meth:`repro.core.cost_model.CostModel.signature`)
is ``None`` for models that do not declare their latency function (unknown
subclasses); those searches are never shared.  The
block fingerprint (:meth:`IOSScheduler._block_fingerprint`) already encodes
operator attributes, shapes, local wiring, pruning and the strategy set, so a
memo hit can only ever return a schedule that the searching scheduler would
have found itself.

A caller that must not share passes ``use_memo=False`` to
:meth:`~repro.core.dp_scheduler.IOSScheduler.optimize_graph`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .dp_scheduler import BlockStats

__all__ = ["ScheduleMemo", "schedule_memo", "clear_schedule_memo"]


class ScheduleMemo:
    """In-memory map of finished block searches, shared across schedulers.

    Values are stored in the scheduler's *position-based* form — stage
    operator indices into the block's topological order plus the strategy —
    exactly like the per-instance block cache, so a hit is rebound to the
    hitting block's operator names.  ``hits`` / ``misses`` count lookups with
    a usable signature; lookups with ``signature=None`` are not counted (the
    caller never reaches the memo for those).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[list, "BlockStats"]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, signature: tuple, fingerprint: tuple) -> tuple[list, Any] | None:
        """The memoised (stages, stats) for a block, or ``None``."""
        entry = self._entries.get((signature, fingerprint))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, signature: tuple, fingerprint: tuple, stages: list, stats: Any) -> None:
        """Record a finished search (first writer wins; results are equal)."""
        self._entries.setdefault((signature, fingerprint), (stages, stats))

    def contains(self, signature: tuple, fingerprint: tuple) -> bool:
        """Membership probe that does not touch the hit/miss counters."""
        return (signature, fingerprint) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: The process-wide memo every scheduler consults (unless ``use_memo=False``).
_GLOBAL_MEMO = ScheduleMemo()


def schedule_memo() -> ScheduleMemo:
    """The process-wide :class:`ScheduleMemo` instance."""
    return _GLOBAL_MEMO


def clear_schedule_memo() -> None:
    """Drop every memoised block search (tests, benchmarks)."""
    _GLOBAL_MEMO.clear()

