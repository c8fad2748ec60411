"""Closed-form convergence-time bounds and the states that witness them.

All logarithms are natural; every formula here is a ratio of logs, so the
base cancels.  Degenerate parameter corners return value 0 with a flag
instead of raising, so parameter sweeps never abort on safe inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .dynamics import OpinionState
from .errors import CompleteGraph, PreconditionViolated
from .graphs import Graph


@dataclass(frozen=True)
class BoundReport:
    """A bound value together with the inputs it was evaluated on."""

    kind: str  # ConductanceLower | ConditionalUpper | LinkBreakBudget | Lambda2Diameter
    value: float
    inputs: dict = field(default_factory=dict)
    degenerate: bool = False
    extras: dict = field(default_factory=dict)


def conductance_lower_bound(phi: float, eps: float, bound: float) -> BoundReport:
    """Floor on the worst-case eps-convergence time from graph conductance.

    Evaluates log(eps*sqrt(2)/R) / log(1 - 2*phi).  When eps*sqrt(2) >= R or
    phi >= 1/2 the ratio degenerates (log of a non-positive or zero-bound
    quantity), so the report carries value 0 and the degenerate flag.
    """
    if not 0 < phi:
        raise ValueError("phi must be positive for a connected graph")
    if eps <= 0 or bound <= 0:
        raise ValueError("eps and the confidence bound must be positive")
    inputs = {"phi": phi, "eps": eps, "R": bound}
    if phi >= 0.5 or eps * math.sqrt(2.0) >= bound:
        return BoundReport("ConductanceLower", 0.0, inputs, degenerate=True)
    value = math.log(eps * math.sqrt(2.0) / bound) / math.log(1.0 - 2.0 * phi)
    return BoundReport("ConductanceLower", value, inputs)


def constant_influence_upper_bound(n: int, diam: int, eps: float, bound: float) -> BoundReport:
    """Ceiling on the eps-convergence time while the influence graph stays
    connected and constant.

    kappa(e) = log(e / (n^2 R)) / log(1 - 1/(n^2 d)); the usable ceiling is
    min(ceil(kappa(eps)), kappa(R/2)).  Also reports the spectral ingredient
    |lambda_2| <= 1 - 1/(n^2 d), and its gap 1/(n^2 d), whose digits the
    difference loses on large graphs.
    """
    if n < 2 or diam < 1:
        raise ValueError("need n >= 2 and diameter >= 1")
    if eps <= 0 or bound <= 0:
        raise ValueError("eps and the confidence bound must be positive")
    gap = 1.0 / (n * n * diam)
    shrink = math.log1p(-gap)  # log(1 - x) loses x's digits to cancellation

    def kappa(e):
        return math.log(e / (n * n * bound)) / shrink

    k_eps = kappa(eps)
    k_half = kappa(bound / 2.0)
    value = min(math.ceil(k_eps), k_half)
    return BoundReport(
        "ConditionalUpper",
        float(value),
        {"n": n, "d": diam, "eps": eps, "R": bound},
        extras={
            "kappa_eps": k_eps,
            "kappa_R_half": k_half,
            "lambda2_upper": 1.0 - gap,
            "lambda2_gap": gap,
        },
    )


def link_break_budget(n: int, bound: float) -> BoundReport:
    """Energy accounting for link breaks: each break sheds at least
    R^2/(2 n^3), the initial energy is at most n^2 R^2, so at most 2 n^5
    breaks can ever occur."""
    if n < 1:
        raise ValueError("n must be positive")
    per_break = bound * bound / (2.0 * n**3)
    cap = n * n * bound * bound
    return BoundReport(
        "LinkBreakBudget",
        float(2 * n**5),
        {"n": n, "R": bound},
        extras={"per_break_decrement": per_break, "initial_energy_cap": cap},
    )


def lambda2_diameter_bound(n: int, diam: int) -> BoundReport:
    """The spectral ingredient alone: |lambda_2| <= 1 - 1/(n^2 d).  The gap
    1/(n^2 d) is reported as ``lambda2_gap``: the value loses its digits to
    the subtraction, and once n^2 d reaches 2^54 it rounds to 1.0."""
    if n < 2 or diam < 1:
        raise ValueError("need n >= 2 and diameter >= 1")
    gap = 1.0 / (n * n * diam)
    return BoundReport("Lambda2Diameter", 1.0 - gap, {"n": n, "d": diam}, extras={"lambda2_gap": gap})


def eigenvector_witness_state(gph: Graph, bound: float, scale: float = 0.9) -> OpinionState:
    """Initial state aligned with the second eigenvector, scaled to the given
    opinion spread (a fraction of the confidence bound, so the influence graph
    stays equal to the physical graph forever).

    From such a state the trajectory contracts exactly by |lambda_2| each
    step toward the zero limit, which is what makes it the slow witness for
    the conductance floor.
    """
    if not gph.is_connected():
        raise PreconditionViolated("graph must be connected")
    if gph.is_complete():
        raise CompleteGraph("complete graphs average to the limit in one step")
    if not 0 < scale < 1:
        raise ValueError("scale must lie in (0, 1) so the spread stays below the bound")
    dec = spectral.decompose(gph)
    v2 = dec.eigenvectors[:, 1]
    spread = float(np.max(v2) - np.min(v2))
    x0 = v2 * (scale * bound / spread)
    return OpinionState(x0, bound)
