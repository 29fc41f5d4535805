"""AST007 negative fixture: solves go through the HiGHS backend."""

from repro.lp import HighsBackend


def solve(lp):
    return HighsBackend().solve(lp)
