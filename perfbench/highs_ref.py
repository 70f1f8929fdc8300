"""Reference solve of an in-house MILP model with HiGHS.

scipy ships HiGHS as ``scipy.optimize.milp``; solving the identical
:class:`~rampflow.milp.MilpModel` there gives a column to compare the
in-house branch and bound against.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

# scipy.optimize.milp status codes, recorded as highs_ref.status
NOT_RUN = -1
STATUS_NAMES = {NOT_RUN: "not run", 0: "optimal", 1: "limit reached",
                2: "infeasible", 3: "unbounded", 4: "other"}


def solve_highs(model, *, rel_gap: float, time_limit: float):
    """Solve ``model`` with HiGHS; return (seconds, status code, objective).

    ``rel_gap`` is the relative optimality gap HiGHS may stop at, so the
    in-house solve and this one can be held to the same tolerance. The
    objective is NaN when HiGHS found no feasible point.
    """
    lp = model.lp
    flip = -1.0 if lp.sense == "max" else 1.0
    row_lo = np.where(lp.row_senses == "L", -np.inf, lp.rhs)
    row_hi = np.where(lp.row_senses == "G", np.inf, lp.rhs)
    integrality = np.zeros(lp.n_cols)
    integrality[model.binaries] = 1
    start = time.perf_counter()
    res = milp(flip * lp.obj,
               constraints=LinearConstraint(lp.matrix(), row_lo, row_hi),
               integrality=integrality,
               bounds=Bounds(lp.col_lower, lp.col_upper),
               options={"time_limit": time_limit, "mip_rel_gap": rel_gap})
    seconds = time.perf_counter() - start
    objective = flip * float(res.fun) if res.x is not None else float("nan")
    return seconds, int(res.status), objective


def objective_gap(inhouse: float, highs: float) -> float:
    """In-house objective minus the HiGHS one, relative to the latter."""
    if not (np.isfinite(inhouse) and np.isfinite(highs)):
        return 0.0
    return (inhouse - highs) / max(1.0, abs(highs))
