"""The direct HiGHS path returns exactly what ``linprog`` does for its size.

``HighsBackend`` loads each model into scipy's HiGHS binding itself instead
of going through :func:`scipy.optimize.linprog`, and picks the solver by
column count.  Here ``linprog`` is the oracle:
``method="highs"`` with presolve off below
:data:`~repro.lp.scipy_backend.IPM_MIN_COLUMNS`, ``method="highs-ipm"`` at or
above it.  Over hypothesis LPs, the epoch models of a tiny LiPS simulation
and a tiny scheduling-service run, one model on each side of the crossover
and the failure cases, both must give bit-identical primal values,
objective, duals, status, iteration count and message.
"""

import importlib.util
import sys

import numpy as np
import pytest
import scipy.optimize._highspy
from hypothesis import given, settings
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs_core
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.lp import scipy_backend
from repro.lp.problem import AssembledLP, LinearProgram, Sense
from repro.lp.result import LPStatus
from repro.lp.scipy_backend import HighsBackend
from repro.lp.validation import certify_optimal
from repro.obs import lpprof
from repro.resilience.soak import build_soak_cluster, build_soak_workload
from repro.schedulers import LipsScheduler
from repro.serve.service import SchedulingService
from repro.serve.soak import ServeSoakConfig, build_serve_schedule, drive_service
from tests.lp.test_presolve import small_lp
from tests.lp.test_property_backends import bounded_lp

#: linprog's status codes, as the backend once mapped them
SCIPY_STATUS = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ITERATION_LIMIT,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.NUMERICAL,
}


def oracle(asm):
    """The fields ``linprog`` returns for ``asm`` with the backend's method."""
    if asm.num_variables >= scipy_backend.IPM_MIN_COLUMNS:
        method = {"method": "highs-ipm"}
    else:
        method = {"method": "highs", "options": {"presolve": False}}
    res = linprog(
        c=asm.c,
        A_ub=asm.a_ub if asm.a_ub.shape[0] else None,
        b_ub=asm.b_ub if asm.b_ub.shape[0] else None,
        A_eq=asm.a_eq if asm.a_eq.shape[0] else None,
        b_eq=asm.b_eq if asm.b_eq.shape[0] else None,
        bounds=asm.bounds,
        **method,
    )
    status = SCIPY_STATUS[res.status]
    optimal = status is LPStatus.OPTIMAL
    return {
        "status": status,
        "objective": float(res.fun) + asm.objective_constant if optimal else float("nan"),
        "x": None if res.x is None else np.asarray(res.x),
        "dual_ub": np.asarray(res.ineqlin.marginals) if optimal else None,
        "dual_eq": np.asarray(res.eqlin.marginals) if optimal else None,
        "iterations": int(res.nit or 0),
        "message": str(res.message),
    }


def _bits(value):
    if value is None:
        return None
    arr = np.asarray(value, dtype=np.float64)
    return arr.shape, arr.tobytes()


def assert_identical(asm):
    got = HighsBackend().solve_assembled(asm)
    want = oracle(asm)
    assert got.status is want["status"]
    assert got.message == want["message"]
    assert got.iterations == want["iterations"]
    assert _bits(got.objective) == _bits(want["objective"])
    for field in ("x", "dual_ub", "dual_eq"):
        assert _bits(getattr(got, field)) == _bits(want[field]), field
    return got


class Recorder:
    """Backend that keeps every assembled model it is asked to solve."""

    name = "highs"

    def __init__(self):
        self.inner = HighsBackend()
        self.models = []

    def solve(self, lp):
        return self.solve_assembled(lp.assemble())

    def solve_assembled(self, asm):  # lint: ok=AST005
        self.models.append(asm)
        return self.inner.solve_assembled(asm)


def _lips_models():
    rng = np.random.default_rng(3)
    cluster = build_soak_cluster(6, rng)
    workload = build_soak_workload(8, cluster.num_stores, 4000.0, rng)
    recorder = Recorder()
    HadoopSimulator(
        cluster,
        workload,
        LipsScheduler(epoch_length=120.0, backend=recorder),
        SimConfig(placement_seed=0, speculative=False),
    ).run()
    return recorder.models


def _serve_models():
    config = ServeSoakConfig(
        seed=0, num_machines=6, num_submitters=2, jobs_per_submitter=8,
        sim_hours=1.0, chaos=False,
    )
    cluster = build_soak_cluster(config.num_machines, np.random.default_rng(0))
    schedule, data_by_job = build_serve_schedule(
        config, cluster.num_stores, np.random.default_rng(config.seed)
    )
    recorder = Recorder()
    service = SchedulingService(cluster, config.service_config(), backend=recorder)
    service.start()
    drive_service(service, schedule, data_by_job)
    return recorder.models


@given(bounded_lp())
@settings(max_examples=60, deadline=None)
def test_hypothesis_lps_match_linprog(lp):
    assert_identical(lp.assemble())


@given(small_lp())
@settings(max_examples=40, deadline=None)
def test_presolved_lps_match_linprog(lp):
    from repro.lp.presolve import PresolveStatus, presolve

    assert_identical(lp.assemble())
    reduced = presolve(lp.assemble())
    if reduced.status is PresolveStatus.REDUCED and reduced.reduced.num_variables:
        assert_identical(reduced.reduced)


@pytest.mark.parametrize("collect", [_lips_models, _serve_models], ids=["lips-sim", "serve"])
def test_epoch_models_match_linprog(collect):
    models = collect()
    assert len(models) >= 3
    statuses = {assert_identical(asm).status for asm in models}
    assert LPStatus.OPTIMAL in statuses


def _asm(c, a_ub=None, b_ub=(), a_eq=None, b_eq=(), bounds=None):
    n = len(c)
    return AssembledLP(
        c=np.asarray(c, dtype=float),
        a_ub=sparse.csr_matrix(a_ub) if a_ub is not None else sparse.csr_matrix((0, n)),
        b_ub=np.asarray(b_ub, dtype=float),
        a_eq=sparse.csr_matrix(a_eq) if a_eq is not None else sparse.csr_matrix((0, n)),
        b_eq=np.asarray(b_eq, dtype=float),
        bounds=np.asarray(bounds if bounds is not None else [[0.0, np.inf]] * n, dtype=float),
    )


CASES = {
    "infeasible": (_asm([1.0], a_ub=[[-1.0]], b_ub=[-5.0], bounds=[[0.0, 1.0]]), LPStatus.INFEASIBLE),
    "unbounded": (_asm([-1.0, 1.0]), LPStatus.UNBOUNDED),
    "no-rows": (_asm([1.0, -1.0], bounds=[[0.0, 2.0], [0.0, 3.0]]), LPStatus.OPTIMAL),
    "eq-and-ub": (
        _asm([1.0, 2.0, 3.0], a_ub=[[1.0, -1.0, 0.0]], b_ub=[0.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[6.0]),
        LPStatus.OPTIMAL,
    ),
    "eq-only": (_asm([1.0, 1.0], a_eq=[[1.0, 2.0]], b_eq=[4.0]), LPStatus.OPTIMAL),
    "lower-above-upper": (
        _asm([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[3.0], bounds=[[2.0, 1.0], [0.0, 1.0]]),
        LPStatus.INFEASIBLE,
    ),
    "model-error": (
        _asm([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[3.0], bounds=[[np.inf, np.inf], [0.0, 1.0]]),
        LPStatus.INFEASIBLE,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_edge_cases_match_linprog(name):
    asm, status = CASES[name]
    assert assert_identical(asm).status is status


def test_model_error_keeps_linprog_message():
    asm, _ = CASES["model-error"]
    res = HighsBackend().solve_assembled(asm)
    assert res.message == "(HiGHS Status 2: Model error)"
    assert res.x is None and res.iterations == 0


def test_zero_row_block_with_stale_column_count():
    # presolve can leave an empty a_eq whose column count predates column
    # removal; stacking it with a_ub would raise, so it must be skipped
    asm = _asm([1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    asm.a_eq = sparse.csr_matrix((0, 1))
    res = HighsBackend().solve_assembled(asm)
    assert res.is_optimal
    assert res.objective == pytest.approx(1.0)
    assert res.dual_eq.shape == (0,)
    assert_identical(asm)


def test_status_table_matches_scipy():
    for model_status in highs_core.HighsModelStatus.__members__.values():
        code, message = _highs_to_scipy_status_message(model_status, "text")
        assert scipy_backend._status_message(model_status, "text") == (SCIPY_STATUS[code], message)


def test_out_of_tolerance_solution_is_demoted(monkeypatch):
    """An "optimal" point outside the bounds becomes NUMERICAL, as in linprog."""
    real = highs_core._Highs

    class Shifted:
        def __init__(self):
            self._inner = real()

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def getSolution(self):
            solution = self._inner.getSolution()
            solution.col_value = [v + 1e-3 for v in solution.col_value]
            return solution

    lp = LinearProgram()
    x = lp.new_var("x", upper=1.0)
    lp.add_constraint(x, Sense.GE, 1.0)
    lp.set_objective(x)
    assert HighsBackend().solve(lp).is_optimal
    monkeypatch.setattr(highs_core, "_Highs", Shifted)
    res = HighsBackend().solve(lp)
    assert res.status is LPStatus.NUMERICAL
    assert res.message.startswith("The solution does not satisfy the constraints")
    assert "3.16E-04" in res.message
    assert np.isnan(res.objective)
    assert res.x is not None and res.x[0] == pytest.approx(1.001)
    assert res.dual_ub is None and res.dual_eq is None


def test_feasibility_check_tolerances():
    tol = scipy_backend.FEASIBILITY_TOL
    lower, upper = np.zeros(2), np.ones(2)
    empty = np.zeros(0)
    ok = np.array([0.5, 1.0 + tol / 2])
    assert scipy_backend.is_feasible(ok, lower, upper, np.array([-tol / 2]), np.array([tol / 2]))
    assert not scipy_backend.is_feasible(np.array([0.5, 1.0 + 2 * tol]), lower, upper, empty, empty)
    assert not scipy_backend.is_feasible(ok, lower, upper, np.array([-2 * tol]), empty)
    assert not scipy_backend.is_feasible(ok, lower, upper, empty, np.array([-2 * tol]))
    assert not scipy_backend.is_feasible(np.array([np.nan, 0.0]), lower, upper, empty, empty)


def test_missing_binding_names_the_scipy_floor(monkeypatch):
    monkeypatch.delattr(scipy.optimize._highspy, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    spec = importlib.util.spec_from_file_location("backend_probe", scipy_backend.__file__)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))



def assignment_lp(jobs, machines, seed=0):
    """Fractional assignment of ``jobs`` unit jobs to capacitated machines.

    One column per (job, machine) pair, cost ``c`` and bounds [0, 1]: each
    job is fully assigned (``A_eq``) and each machine holds at most its
    share of the total work (``A_ub``), the shape of the epoch LP's
    relaxation.  Machine 0 is retired: its columns are fixed at 0, which
    presolve removes.
    """
    rng = np.random.default_rng(seed)
    n = jobs * machines
    cols = np.arange(n)
    job_of, machine_of = np.divmod(cols, machines)
    work = rng.uniform(1.0, 4.0, size=n)
    bounds = np.tile([0.0, 1.0], (n, 1))
    bounds[machine_of == 0, 1] = 0.0
    return AssembledLP(
        c=rng.uniform(0.5, 2.0, size=n) * work,
        a_ub=sparse.csr_matrix((work, (machine_of, cols)), shape=(machines, n)),
        b_ub=np.full(machines, 3.0 * jobs / machines),
        a_eq=sparse.csr_matrix((np.ones(n), (job_of, cols)), shape=(jobs, n)),
        b_eq=np.ones(jobs),
        bounds=bounds,
    )


@pytest.mark.parametrize("ipm", [False, True], ids=["simplex", "ipm"])
def test_size_rule_picks_the_path_and_certifies(ipm):
    """One model on each side of the crossover: the path, linprog's bits for
    that path, and an optimality certificate including the row duals."""
    machines = 100
    jobs = scipy_backend.IPM_MIN_COLUMNS // machines - (not ipm)
    asm = assignment_lp(jobs, machines)
    assert (asm.num_variables >= scipy_backend.IPM_MIN_COLUMNS) is ipm
    with lpprof.profile() as prof:
        got = assert_identical(asm)
    (record,) = prof.records
    assert got.is_optimal
    assert record.presolve_applied is ipm
    if ipm:
        assert record.presolve_fixed_vars >= jobs  # the retired machine's columns
        assert 0 <= record.presolve_dropped_rows <= jobs + machines
    else:
        assert record.presolve_fixed_vars == record.presolve_dropped_rows == 0
    cert = certify_optimal(asm, got)
    assert cert, cert.violations
    # every job row is a binding equality, so its dual is live after crossover
    assert np.all(got.dual_eq > 0)
