"""Per-layer timing for the traced run, recorded from outside the program.

:class:`LayerTrace` wraps public calls on the objects a workload builds
(instance attributes, so nothing outside one execution is touched) and
keeps, per layer: calls, busy time (inclusive) and self time (busy minus
the time of instrumented calls made inside).  Coarse calls (epochs, LP
solves, ticks, submits, journal appends, snapshots) are also kept as spans
with a name, start, end, parent span and run id; fine calls (slot offers,
JobTracker and TaskTracker calls, event dispatch) are only counted, because
a SWIM day makes millions of them.

Every instrumented call sits inside the root span, so the layers' self
times plus the root's own self time (``unattributed_s``: time in no
instrumented call) sum to the root's wall time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (span id, name, start, end, parent span id)
Span = Tuple[int, str, float, float, Optional[int]]

ROOT = "root"


class LayerTrace:
    """Call accounting and spans of one traced execution."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: layer -> [calls, busy seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: named counts (e.g. offers that launched a task)
        self.counts: Dict[str, int] = {}
        self.spans: List[Span] = []
        #: LP solve records, in solve order
        self.lp_records: List[object] = []
        # open frames: [seconds covered by children, span id to parent to]
        self._stack: List[list] = [[0.0, None]]
        self._next_span = 0

    def _span_id(self) -> int:
        self._next_span += 1
        return self._next_span

    def _stat(self, layer: str) -> List[float]:
        return self.stats.setdefault(layer, [0, 0.0, 0.0])

    def wrap(
        self,
        layer: str,
        fn: Callable,
        span: bool = False,
        hit: Optional[str] = None,
        after: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """A timed stand-in for ``fn``.

        ``span`` records a span per call; ``hit`` names a count bumped
        when the call returns something other than None; ``after`` sees
        each result (outside the timed interval).
        """
        stat = self._stat(layer)
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter
        new_id = self._span_id
        if hit is not None:
            counts.setdefault(hit, 0)

        def timed(*args, **kwargs):
            parent = stack[-1][1]
            sid = new_id() if span else parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                stack[-1][0] += dur
                if span:
                    spans.append((sid, layer, t0, t1, parent))
            if hit is not None and result is not None:
                counts[hit] += 1
            if after is not None:
                after(result)
            return result

        return timed

    def patch(self, obj: object, name: str, layer: str, **opts) -> None:
        """Replace ``obj.name`` by its timed stand-in (on the instance)."""
        setattr(obj, name, self.wrap(layer, getattr(obj, name), **opts))

    def lp_collector(self, record) -> None:
        """An :mod:`repro.obs.lpprof` collector: one LP span per solve.

        The backend calls collectors right after the solve, so the span is
        the solve's own wall time ending now, parented to the innermost
        open call.
        """
        end = time.perf_counter()
        dur = record.wall_seconds
        frame = self._stack[-1]
        frame[0] += dur
        stat = self._stat("lp")
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur
        self.spans.append((self._span_id(), "lp", end - dur, end, frame[1]))
        self.lp_records.append(record)

    def root(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span; returns its result."""
        if len(self._stack) != 1:
            raise RuntimeError("root span opened inside another call")
        return self.wrap(ROOT, fn, span=True)(*args, **kwargs)

    # -- results ---------------------------------------------------------
    @property
    def wall_s(self) -> float:
        """Wall time of the root span."""
        return self.stats[ROOT][1]

    def busy(self, *layers: str) -> float:
        """Summed busy seconds of ``layers``."""
        return sum(self.stats[name][1] for name in layers if name in self.stats)

    def self_s(self, *layers: str) -> float:
        """Summed self seconds of ``layers``."""
        return sum(self.stats[name][2] for name in layers if name in self.stats)

    def calls(self, *layers: str) -> int:
        """Summed call counts of ``layers``."""
        return int(sum(self.stats[name][0] for name in layers if name in self.stats))

    def layer_self(self) -> Dict[str, float]:
        """Self seconds of every instrumented layer, the root excluded."""
        return {name: s[2] for name, s in self.stats.items() if name != ROOT}

    @property
    def unattributed_s(self) -> float:
        """Root time spent in no instrumented call."""
        return self.stats[ROOT][2]

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the root)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": sid,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
