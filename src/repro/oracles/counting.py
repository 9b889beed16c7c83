"""Query accounting for oracles.

Query complexity is one of the two axes every experiment in the paper reports
(the other being solution quality), so all oracles in the library share a
:class:`QueryCounter` that records how many queries were issued, how many hit
the persistence cache, and optionally enforces a hard budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError, QueryBudgetExceededError


@dataclass
class QueryCounter:
    """Counts oracle queries and optionally enforces a budget.

    Attributes
    ----------
    budget:
        Maximum number of *charged* queries allowed; ``None`` means unlimited.
    charge_cached:
        Whether answers served from a persistence cache count against the
        budget.  The paper's persistent noise model answers repeated queries
        identically "for free" from the crowd's point of view, so the default
        is ``False``.
    """

    budget: Optional[int] = None
    charge_cached: bool = False
    total_queries: int = 0
    charged_queries: int = 0
    cached_queries: int = 0
    by_tag: Dict[str, int] = field(default_factory=dict)
    cached_by_tag: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.budget is not None and self.budget < 0:
            raise InvalidParameterError(f"budget must be non-negative, got {self.budget}")

    def record(self, cached: bool = False, tag: Optional[str] = None) -> None:
        """Record one oracle query.

        Parameters
        ----------
        cached:
            True when the answer was served from a persistence cache.
        tag:
            Optional label (e.g. ``"assign"``, ``"farthest"``) for per-phase
            breakdowns in the experiment reports.
        """
        self.total_queries += 1
        if cached:
            self.cached_queries += 1
        if not cached or self.charge_cached:
            self.charged_queries += 1
        if tag is not None:
            self.by_tag[tag] = self.by_tag.get(tag, 0) + 1
            if cached:
                self.cached_by_tag[tag] = self.cached_by_tag.get(tag, 0) + 1
        if self.budget is not None and self.charged_queries > self.budget:
            raise QueryBudgetExceededError(
                f"query budget of {self.budget} exceeded "
                f"({self.charged_queries} charged queries)",
                counter=self,
            )

    def record_batch(
        self,
        n: int,
        n_cached: int = 0,
        tag: Optional[str] = None,
        cached_mask: Optional[Sequence[bool]] = None,
    ) -> None:
        """Record *n* oracle queries issued as one batch.

        Equivalent to ``n`` calls to :meth:`record`, of which *n_cached* were
        served from a persistence cache, but with O(1) bookkeeping cost.  The
        equivalence holds through budget overruns too: when the batch pushes
        the charged count past the budget, only the queries up to and
        including the first over-budget one are recorded — ``total``,
        ``charged``, ``cached`` and ``by_tag`` all clamp to that prefix, so
        the counter state at raise time matches what the scalar loop would
        have left behind — before
        :class:`~repro.exceptions.QueryBudgetExceededError` is raised.

        Locating that first over-budget query needs the in-batch positions of
        the cache hits.  Pass them as *cached_mask* (a boolean sequence in
        query order, ``True`` = served from cache) for exact scalar-order
        clamping; without a mask the cache hits are assumed to precede the
        charged queries, the convention that records the largest
        scalar-consistent prefix.

        Cached answers inside a batch are *not* silently dropped: they are
        recorded in ``total_queries`` / ``cached_queries`` exactly like
        scalar cache hits, so repeat-query statistics survive batching.
        """
        n = int(n)
        mask = None
        if cached_mask is not None:
            if isinstance(cached_mask, list):
                # The oracles' small-batch path: count in Python and build
                # the array only if the budget check needs it.
                mask_len = len(cached_mask)
                mask_cached = sum(map(bool, cached_mask))
            else:
                mask = np.asarray(cached_mask, dtype=bool).reshape(-1)
                mask_len = len(mask)
                mask_cached = int(np.count_nonzero(mask))
            if mask_len != n:
                raise InvalidParameterError(
                    f"cached_mask must have length {n}, got {mask_len}"
                )
            if n_cached not in (0, mask_cached):
                raise InvalidParameterError(
                    f"n_cached={n_cached} disagrees with cached_mask "
                    f"({mask_cached} cached entries)"
                )
            n_cached = mask_cached
        n_cached = int(n_cached)
        if n < 0:
            raise InvalidParameterError(f"batch size must be non-negative, got {n}")
        if not 0 <= n_cached <= n:
            raise InvalidParameterError(
                f"n_cached must be between 0 and {n}, got {n_cached}"
            )
        if n == 0:
            return
        charged = n if self.charge_cached else n - n_cached
        if self.budget is not None and self.charged_queries + charged > self.budget:
            if mask is None and cached_mask is not None:
                mask = np.asarray(cached_mask, dtype=bool)
            self._record_overrun_prefix(n, n_cached, tag, mask)
            raise QueryBudgetExceededError(
                f"query budget of {self.budget} exceeded "
                f"({self.charged_queries} charged queries)",
                counter=self,
            )
        self.total_queries += n
        self.cached_queries += n_cached
        self.charged_queries += charged
        if tag is not None:
            self.by_tag[tag] = self.by_tag.get(tag, 0) + n
            if n_cached:
                self.cached_by_tag[tag] = self.cached_by_tag.get(tag, 0) + n_cached

    def _record_overrun_prefix(
        self,
        n: int,
        n_cached: int,
        tag: Optional[str],
        mask: Optional[np.ndarray],
    ) -> None:
        """Record the batch prefix the scalar loop would have seen at raise time.

        The scalar loop raises while processing the first query that lifts
        the charged count above the budget; that query itself is recorded
        (exactly as :meth:`record` increments before raising), everything
        after it is not.
        """
        allowed = self.budget - self.charged_queries
        if mask is not None:
            charge_flags = (
                np.ones(n, dtype=np.int64) if self.charge_cached else (~mask).astype(np.int64)
            )
            cum = np.cumsum(charge_flags)
            # First position where the running charged count exceeds `allowed`.
            stop = int(np.searchsorted(cum, allowed, side="right"))
            n_recorded = stop + 1
            cached_recorded = int(np.count_nonzero(mask[:n_recorded]))
        elif allowed < 0:
            # Already over budget: the very first query raises, whatever it is
            # (cached-first convention makes it a cache hit when one exists).
            n_recorded = 1
            cached_recorded = min(n_cached, 1)
        elif self.charge_cached:
            n_recorded = allowed + 1
            cached_recorded = min(n_cached, n_recorded)
        else:
            n_recorded = n_cached + allowed + 1
            cached_recorded = n_cached
        self.total_queries += n_recorded
        self.cached_queries += cached_recorded
        self.charged_queries += (
            n_recorded if self.charge_cached else n_recorded - cached_recorded
        )
        if tag is not None:
            self.by_tag[tag] = self.by_tag.get(tag, 0) + n_recorded
            if cached_recorded:
                self.cached_by_tag[tag] = (
                    self.cached_by_tag.get(tag, 0) + cached_recorded
                )

    def fold_into(self, registry, name: str = "oracle", **labels) -> None:
        """Fold this counter into a :class:`repro.obs.MetricsRegistry`.

        Emits the total/charged/cached counts plus per-tag breakdowns under
        *name*-prefixed counters (e.g. ``oracle.charged_queries``), carrying
        any extra *labels* (such as ``backend="comparison"``).  Counters add
        on repeated folds, so fold each :class:`QueryCounter` exactly once —
        typically at the end of a run, when the counter is final.
        """
        registry.inc(f"{name}.total_queries", self.total_queries, **labels)
        registry.inc(f"{name}.charged_queries", self.charged_queries, **labels)
        registry.inc(f"{name}.cached_queries", self.cached_queries, **labels)
        for tag, count in sorted(self.by_tag.items()):
            registry.inc(f"{name}.queries", count, tag=tag, **labels)
        for tag, count in sorted(self.cached_by_tag.items()):
            registry.inc(f"{name}.cached", count, tag=tag, **labels)

    def reset(self) -> None:
        """Zero all counters (the budget is kept)."""
        self.total_queries = 0
        self.charged_queries = 0
        self.cached_queries = 0
        self.by_tag = {}
        self.cached_by_tag = {}

    @property
    def hit_rate(self) -> float:
        """Cache hit rate ``cached / total`` (``0.0`` before any query)."""
        if self.total_queries == 0:
            return 0.0
        return self.cached_queries / self.total_queries

    def tag_hit_rate(self, tag: str) -> float:
        """Cache hit rate of one tag's queries (``0.0`` for unseen tags)."""
        total = self.by_tag.get(tag, 0)
        if total == 0:
            return 0.0
        return self.cached_by_tag.get(tag, 0) / total

    def snapshot(self) -> Dict[str, object]:
        """Return a plain-dict snapshot suitable for experiment result rows.

        Includes the cache hit rate (``hits / total``) overall and per tag:
        over a warehouse-backed oracle these rates *are* the cross-session
        dedup rates, which is what the store bench reports.
        """
        return {
            "total_queries": self.total_queries,
            "charged_queries": self.charged_queries,
            "cached_queries": self.cached_queries,
            "hit_rate": self.hit_rate,
            **{f"tag:{k}": v for k, v in sorted(self.by_tag.items())},
            **{
                f"hit_rate:{k}": self.tag_hit_rate(k)
                for k in sorted(self.by_tag)
            },
        }

    def summary(self) -> str:
        """One-line human-readable account, used by the experiment reports.

        Example: ``"1523 queries (1400 charged, 123 cached, 8.1% hit rate)
        [assign=900 (12.0% hit), farthest=623 (0.0% hit)]"``.
        """
        parts = (
            f"{self.total_queries} queries "
            f"({self.charged_queries} charged, {self.cached_queries} cached, "
            f"{self.hit_rate:.1%} hit rate)"
        )
        if self.by_tag:
            tags = ", ".join(
                f"{k}={v} ({self.tag_hit_rate(k):.1%} hit)"
                for k, v in sorted(self.by_tag.items())
            )
            parts += f" [{tags}]"
        return parts

    @property
    def remaining(self) -> Optional[int]:
        """Remaining budget, or ``None`` when unlimited."""
        if self.budget is None:
            return None
        return max(0, self.budget - self.charged_queries)
