"""Warm-start state threaded through consecutive simplex solves.

A :class:`WarmStartContext` travels with a *stream* of structurally related
LPs — the epoch controller's per-epoch models.  It owns

* the :class:`~repro.lp.standard_form.StandardFormCache` reusing the
  standard-form rewrite structure across epochs, and
* the :class:`~repro.lp.standard_form.BasisSnapshot` of the previous
  epoch's optimal basis, which the simplex backend repairs onto the next
  model (slack fill-in for new rows, drop of departed columns) and uses as
  its starting point instead of a cold two-phase solve.

The context also keeps per-stream statistics mirrored into the installed
:mod:`repro.obs.registry` (``simplex.warm_solves`` by outcome,
``simplex.warm_pivots_saved`` and the cache's
``simplex.std_cache_hits``/``simplex.std_cache_misses``); pivots saved are
measured against the most recent cold solve of the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.lp.standard_form import BasisSnapshot, StandardFormCache, StandardFormLP
from repro.obs.registry import current_registry


@dataclass
class WarmStartContext:
    """Mutable warm-start state for one stream of related solves."""

    std_cache: StandardFormCache = field(default_factory=StandardFormCache)
    snapshot: Optional[BasisSnapshot] = None
    #: pivot count of the most recent cold solve (the warm-saving baseline)
    cold_iterations: Optional[int] = None
    warm_solves: int = 0
    cold_solves: int = 0
    #: warm attempts that had to fall back to a cold solve
    fallbacks: int = 0
    pivots_saved: int = 0

    def record_solve(
        self,
        std: StandardFormLP,
        basis: np.ndarray,
        iterations: int,
        used_warm: bool,
        attempted: bool,
    ) -> None:
        """Account one finished optimal solve and snapshot its basis."""
        snap = BasisSnapshot.capture(std, basis)
        if snap is not None:
            self.snapshot = snap
        registry = current_registry()
        if used_warm:
            self.warm_solves += 1
            saved = max(0, (self.cold_iterations or 0) - iterations)
            self.pivots_saved += saved
            if registry is not None:
                registry.counter(
                    "simplex.warm_solves", help="simplex solves by warm-start outcome"
                ).inc(outcome="warm")
                registry.counter(
                    "simplex.warm_pivots_saved",
                    help="pivots avoided vs the last cold solve of the stream",
                ).inc(saved)
        else:
            self.cold_solves += 1
            self.cold_iterations = iterations
            if attempted:
                self.fallbacks += 1
            if registry is not None:
                registry.counter(
                    "simplex.warm_solves", help="simplex solves by warm-start outcome"
                ).inc(outcome="fallback" if attempted else "cold")

    def stats(self) -> dict:
        """JSON-ready summary (used by ``repro bench``)."""
        return {
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "fallbacks": self.fallbacks,
            "pivots_saved": self.pivots_saved,
            "std_cache_hits": self.std_cache.hits,
            "std_cache_misses": self.std_cache.misses,
        }
