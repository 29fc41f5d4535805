"""Repo-specific AST lint rules for the scheduler/simulator code.

Seven rules, each encoding a bug class this codebase has actually hit or is
structurally exposed to:

==========  ==============================================================
``AST001``  iterating directly over a ``set``/``frozenset`` — iteration
            order is salted per process, so seeded runs diverge; wrap in
            ``sorted(...)``
``AST002``  ``==``/``!=`` against a non-integral float literal — LP
            outputs carry solver noise; compare with a tolerance
            (``math.isclose`` / ``pytest.approx``).  Comparisons against
            integral floats (``0.0``, ``1.0``) are allowed: exact-zero
            sentinel checks are legitimate and deliberate
``AST003``  ``int(round(x))`` — Python 3 ``round`` is banker's rounding
            (``round(2.5) == 2``), so task counts computed from exact
            ``.5`` fractions silently lose a task; use
            ``repro.core.rounding.round_half_up`` (or
            ``largest_remainder_round`` for apportionment)
``AST004``  mutable default argument (``def f(x=[])``)
``AST005``  a ``solve_assembled`` backend entry point that never touches
            :mod:`repro.obs.lpprof` — solves through it would be invisible
            to the shared profiling path
``AST006``  a function fanning work out over ``ProcessPoolExecutor`` /
            ``multiprocessing`` without a seed-carrying parameter — worker
            results must be determined by explicit seeds, never by
            inherited global RNG state (which differs per worker)
``AST007``  any reference to ``scipy.optimize.linprog`` — every HiGHS
            solve goes through :class:`repro.lp.HighsBackend`, which calls
            HiGHS directly; ``linprog`` re-adds a per-solve Python wrapper
            that cost a third of the epoch-LP time
==========  ==============================================================

Suppression: append ``# lint: ok=AST003`` (comma-separate several ids) to
the flagged line; the runner drops matching findings.  Every rule is a
:class:`Rule` with a pure ``check(tree)`` so tests can drive them on
string fixtures.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

RawFinding = Tuple[int, str]  # (lineno, message)


class Rule:
    """One AST rule: stable ``id`` plus a pure check over a parsed module."""

    id: str = "AST000"
    summary: str = ""

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:  # pragma: no cover
        """Yield ``(lineno, message)`` for every violation in ``tree``."""
        raise NotImplementedError


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that evaluate to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.Sub)):
        # set algebra: a & b, a | b, a - b over set-ish operands
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class SetIterationRule(Rule):
    """AST001 — iteration over an unordered set in deterministic code."""

    id = "AST001"
    summary = "iterating a set: order is nondeterministic; wrap in sorted()"

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag for-loops and comprehensions that draw from a set."""
        """Flag for-loops and comprehensions that draw from a set."""
        for node in ast.walk(tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    yield (
                        it.lineno,
                        "iteration over a set is order-nondeterministic; "
                        "use sorted(...) to fix the order",
                    )


class FloatEqualityRule(Rule):
    """AST002 — exact equality against a non-integral float literal."""

    id = "AST002"
    summary = "float ==/!= needs a tolerance"

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag ``==``/``!=`` with a non-integral float literal operand."""
        """Flag ``==``/``!=`` with a non-integral float literal operand."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, rhs in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for operand in operands:
                    if (
                        isinstance(operand, ast.Constant)
                        and isinstance(operand.value, float)
                        and not float(operand.value).is_integer()
                    ):
                        yield (
                            node.lineno,
                            f"exact ==/!= against float {operand.value!r}; LP "
                            "outputs carry solver noise — compare with a "
                            "tolerance",
                        )
                        break
                else:
                    continue
                break


class IntRoundRule(Rule):
    """AST003 — ``int(round(x))`` banker's-rounding hazard."""

    id = "AST003"
    summary = "int(round(x)) is banker's rounding; use round_half_up"

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag single-argument ``round`` calls wrapped in ``int``."""
        """Flag single-argument ``round`` calls wrapped in ``int``."""
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "int"
                and len(node.args) == 1
            ):
                continue
            inner = node.args[0]
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "round"
                and len(inner.args) == 1
            ):
                yield (
                    node.lineno,
                    "int(round(x)) rounds halves to even (round(2.5) == 2); "
                    "use repro.core.rounding.round_half_up for task counts",
                )


class MutableDefaultRule(Rule):
    """AST004 — mutable default argument."""

    id = "AST004"
    summary = "mutable default argument"

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag list/dict/set (literal or call) default values."""
        """Flag list/dict/set (literal or call) default values."""
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set", "bytearray")
                )
                if mutable:
                    yield (
                        default.lineno,
                        f"mutable default argument in {node.name}(); it is shared "
                        "across calls — default to None and construct inside",
                    )


class SolverObsRule(Rule):
    """AST005 — backend solve entry points must report to the obs layer."""

    id = "AST005"
    summary = "solve_assembled without an obs/lpprof reference"

    #: function names that constitute the shared solver path
    SOLVER_NAMES = frozenset({"solve_assembled"})

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag ``solve_assembled`` bodies with no lpprof reference."""
        """Flag ``solve_assembled`` bodies with no lpprof reference."""
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in self.SOLVER_NAMES:
                continue
            mentions_obs = any(
                isinstance(sub, ast.Name) and sub.id == "lpprof"
                or isinstance(sub, ast.Attribute) and sub.attr in ("lp_solve", "observe")
                for sub in ast.walk(node)
            )
            if not mentions_obs:
                yield (
                    node.lineno,
                    f"{node.name}() is on the solver path but never references "
                    "repro.obs.lpprof; its solves are invisible to profiling — "
                    "guard on lpprof.active() and observe() a record",
                )


class UnseededPoolRule(Rule):
    """AST006 — process fan-out must flow from explicit seeds."""

    id = "AST006"
    summary = "process-pool use without a seed-carrying parameter"

    #: names whose reference marks a function as a process fan-out point
    POOL_NAMES = frozenset({"ProcessPoolExecutor", "multiprocessing"})

    @staticmethod
    def _param_names(node) -> List[str]:
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if args.vararg is not None:
            params.append(args.vararg)
        if args.kwarg is not None:
            params.append(args.kwarg)
        return [a.arg for a in params]

    @classmethod
    def _is_seeded(cls, name: str) -> bool:
        lowered = name.lower()
        return "seed" in lowered or lowered == "rng"

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag pool-spawning functions lacking a seed/rng parameter."""
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            uses_pool = any(
                (isinstance(sub, ast.Name) and sub.id in self.POOL_NAMES)
                or (isinstance(sub, ast.Attribute) and sub.attr in self.POOL_NAMES)
                for sub in ast.walk(node)
            )
            if not uses_pool:
                continue
            if any(self._is_seeded(p) for p in self._param_names(node)):
                continue
            yield (
                node.lineno,
                f"{node.name}() spawns worker processes but takes no seed/rng "
                "parameter; workers must derive results from explicit seeds "
                "so parallel runs reproduce serial ones",
            )


class LinprogRule(Rule):
    """AST007 — HiGHS solves must not go through ``scipy.optimize.linprog``."""

    id = "AST007"
    summary = "reference to scipy.optimize.linprog"

    def check(self, tree: ast.Module) -> Iterator[RawFinding]:
        """Flag imports, names and attributes spelled ``linprog``."""
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                hit = any("linprog" in alias.name.split(".") for alias in node.names)
            else:
                hit = (isinstance(node, ast.Name) and node.id == "linprog") or (
                    isinstance(node, ast.Attribute) and node.attr == "linprog"
                )
            if hit:
                yield (
                    node.lineno,
                    "scipy.optimize.linprog re-validates its inputs and builds "
                    "column marginals on every solve; solve through "
                    "repro.lp.HighsBackend, which calls HiGHS directly",
                )


#: The default rule set, in id order.
ALL_RULES: Tuple[Rule, ...] = (
    SetIterationRule(),
    FloatEqualityRule(),
    IntRoundRule(),
    MutableDefaultRule(),
    SolverObsRule(),
    UnseededPoolRule(),
    LinprogRule(),
)
