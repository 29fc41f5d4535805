"""Linear-programming substrate used by the LiPS scheduler.

The paper solves its scheduling models with GLPK.  This package provides an
equivalent, self-contained LP layer with two interchangeable backends:

* :class:`~repro.lp.scipy_backend.HighsBackend` — calls HiGHS directly
  through the binding scipy ships; the default, fast path.
* :class:`~repro.lp.simplex.SimplexBackend` — a from-scratch dense two-phase
  revised simplex implementation used as an independent reference for
  cross-validation in the test suite.

Models are built with :class:`~repro.lp.problem.LinearProgram`, which offers a
small modelling API (named variables, linear expressions, ``<=``/``>=``/``==``
constraints) and assembles the sparse matrices handed to the backends.
"""

from repro.lp.expr import LinExpr, Variable
from repro.lp.presolve import PresolveResult, PresolveStatus, presolve
from repro.lp.problem import Constraint, LinearProgram, Sense
from repro.lp.result import LPResult, LPStatus
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend, SimplexError
from repro.lp.standard_form import StandardFormLP, to_standard_form
from repro.lp.validation import check_solution, duality_gap

__all__ = [
    "Constraint",
    "HighsBackend",
    "LPResult",
    "LPStatus",
    "LinExpr",
    "LinearProgram",
    "PresolveResult",
    "PresolveStatus",
    "Sense",
    "SimplexBackend",
    "SimplexError",
    "StandardFormLP",
    "Variable",
    "check_solution",
    "duality_gap",
    "presolve",
    "set_default_backend",
    "to_standard_form",
]

#: Default backend used when ``LinearProgram.solve`` is called without one.
DEFAULT_BACKEND = HighsBackend()


def set_default_backend(backend) -> object:
    """Install ``backend`` as the module-wide default; returns the previous one.

    Call sites resolve ``DEFAULT_BACKEND`` at solve time, so installing a
    wrapped backend (e.g. :class:`repro.resilience.ResilientSolver`) here
    reroutes every default-backend solve in the process — the CLI's
    ``--solver-timeout``/``--solver-retries``/``--solver-fallback`` flags use
    this.
    """
    global DEFAULT_BACKEND
    previous = DEFAULT_BACKEND
    DEFAULT_BACKEND = backend
    return previous
