"""AST007 positive fixture: HiGHS solves through scipy's linprog wrapper."""

import scipy.optimize
from scipy.optimize import linprog


def solve_imported(c):
    return linprog(c, method="highs")


def solve_qualified(c):
    return scipy.optimize.linprog(c, method="highs")
