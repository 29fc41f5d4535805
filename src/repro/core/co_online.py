"""Online epoch-based co-scheduling — paper Figure 4.

Invoked once per epoch ``e`` over the jobs currently queued.  Differences
from the offline co-scheduling model:

* machine capacity becomes ``TP(M_l) * e`` (constraint 23);
* store capacity becomes the *remaining* epoch capacity ``Cap^e`` (22);
* constraint (21) bounds each (job, machine) pair's data-transfer time by
  the epoch length;
* a **fake node F** of unlimited capacity and prohibitive cost guarantees
  feasibility; fractions assigned to F are re-queued by the epoch
  controller rather than executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.assembly import ModelAssembler
from repro.core.model import SchedulingInput
from repro.core.solution import CoScheduleSolution
from repro.lp.result import LPStatus
from repro.lp.warmstart import WarmStartContext


@dataclass(frozen=True)
class OnlineModelConfig:
    """Knobs of the online model.

    ``epoch_length`` is the paper's ``e`` — the cost/performance dial
    (Section VI-B, Figure 8).  ``enforce_bandwidth`` toggles constraint
    (21); ``store_capacity`` carries ``Cap^e`` from the epoch controller.
    """

    epoch_length: float
    enforce_bandwidth: bool = True

    def __post_init__(self) -> None:
        if self.epoch_length <= 0:
            raise ValueError("epoch_length must be positive")


def solve_co_online(
    inp: SchedulingInput,
    config: OnlineModelConfig,
    backend: Optional[object] = None,
    store_capacity: Optional[np.ndarray] = None,
    fairness: Optional[object] = None,
    strict: bool = False,
    on_failure: str = "raise",
    warm: Optional[WarmStartContext] = None,
    job_keys: Optional[Sequence] = None,
) -> CoScheduleSolution:
    """Solve one epoch of the Figure 4 model.

    Always feasible thanks to the fake node (unless storage is exhausted or
    a :class:`~repro.core.fairness.FairShareConfig` guarantee collides with
    the bandwidth constraint); callers inspect ``solution.fake`` for the
    residual work to re-queue.  With ``strict`` the built model is passed
    through :func:`repro.lint.strict_check` first and a malformed model
    (e.g. missing fake node) raises before any backend runs.

    ``on_failure`` controls what happens when the backend cannot produce an
    optimal solution (or raises): ``"raise"`` (default) surfaces a
    ``RuntimeError``; ``"greedy"`` returns the degraded-mode
    :func:`~repro.resilience.degraded.greedy_epoch_solution` tagged with
    ``model="co-online-degraded"`` so the epoch still executes.

    ``warm`` (one :class:`~repro.lp.warmstart.WarmStartContext` per solve
    stream) warm-starts the solve from the previous epoch's optimal basis
    exactly when the backend advertises ``supports_warm_start``; other
    backends get the plain assembled model.  ``job_keys`` supplies the
    stable per-job identities (length ``inp.num_jobs``) the warm-start
    labels are keyed on; without them the solve is cold.
    """
    if on_failure not in ("raise", "greedy"):
        raise ValueError(f"on_failure must be 'raise' or 'greedy', got {on_failure!r}")
    if backend is None:
        from repro.lp import DEFAULT_BACKEND

        backend = DEFAULT_BACKEND
    min_cpu_rows = None
    if fairness is not None:
        from repro.core.fairness import fairness_rows

        min_cpu_rows = fairness_rows(inp, config.epoch_length, fairness)
    assembler = ModelAssembler(
        inp,
        include_xd=True,
        horizon=config.epoch_length,
        include_fake=True,
        epoch_bandwidth=config.enforce_bandwidth,
        store_capacity=store_capacity,
        min_cpu_rows=min_cpu_rows,
    )
    warm_capable = warm is not None and getattr(backend, "supports_warm_start", False)
    asm = assembler.build(job_keys=job_keys if warm_capable else None)
    asm.name = "co-online"
    if strict:
        from repro.lint import strict_check

        strict_check(assembler, asm, "co-online")
    try:
        if warm_capable:
            result = backend.solve_assembled(asm, warm=warm)
        else:
            result = backend.solve_assembled(asm)
        failure = (
            None
            if result.status is LPStatus.OPTIMAL
            else f"{result.status.value} ({result.message})"
        )
    except Exception as exc:
        if on_failure == "raise":
            raise
        result, failure = None, f"{type(exc).__name__}: {exc}"
    if failure is not None:
        if on_failure == "greedy":
            from repro.resilience.degraded import greedy_epoch_solution

            return greedy_epoch_solution(
                inp,
                config.epoch_length,
                store_capacity=store_capacity,
                enforce_bandwidth=config.enforce_bandwidth,
            )
        # With the fake node the model is feasible unless *storage* is
        # exhausted; surface that explicitly.
        raise RuntimeError(
            f"online model not solvable: {failure}; "
            "storage capacity may be exhausted"
        )
    return assembler.decode(result.x, result.objective, model="co-online")
