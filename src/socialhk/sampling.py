"""Seeded initial-state samplers.

All randomness flows through the Philox4x64-10 counter-based generator keyed
by the caller's seed, so any run is reproducible byte-for-byte from its seed
alone (and reimplementable in other languages from the documented algorithm
name).  Seed 0 is reserved as invalid to keep "unset" representable.
"""

from __future__ import annotations

import numpy as np

from .dynamics import OpinionState
from .errors import InvalidSeed, WidthTooLarge


def make_rng(seed: int) -> np.random.Generator:
    if seed == 0:
        raise InvalidSeed("seed 0 is reserved; pick any other integer")
    return np.random.Generator(np.random.Philox(key=abs(int(seed))))


def uniform_box(n: int, bound: float, lo: float, hi: float, seed: int) -> OpinionState:
    """n opinions drawn independently uniform on [lo, hi]."""
    if hi <= lo:
        raise ValueError("need lo < hi")
    rng = make_rng(seed)
    return OpinionState(rng.uniform(lo, hi, n), bound)


def narrow_spread(n: int, bound: float, center: float, width: float, seed: int) -> OpinionState:
    """n opinions uniform on a window of the given width around the center.

    Width must stay strictly below the confidence bound, so the sampled
    spread is below the bound and the influence graph starts (and stays)
    equal to the physical graph.
    """
    if not 0 < width < bound:
        raise WidthTooLarge(f"width must lie in (0, {bound})")
    rng = make_rng(seed)
    return OpinionState(rng.uniform(center - width / 2, center + width / 2, n), bound)


def sample_initial_state(n: int, bound: float, mode: str, seed: int, **params) -> OpinionState:
    """Dispatch by mode name: ``uniform_box(lo, hi)`` or ``narrow_spread(center, width)``;
    a missing or unknown parameter raises TypeError."""
    samplers = {"uniform_box": uniform_box, "narrow_spread": narrow_spread}
    if mode not in samplers:
        raise ValueError(f"unknown sampler mode {mode!r}")
    return samplers[mode](n, bound, seed=seed, **params)
