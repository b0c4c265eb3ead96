"""Potential-field shaping rewards.

Obstacles repel: moving away from the nearest obstacle earns a bounded
positive reward, moving closer an unbounded penalty.  The chase axis
attracts: the pursuer is paid for closing the separation and the evader for
growing it (attraction and the terminal capture bonus flip sign for the
evader; the obstacle term keeps the same form for both roles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from ._fields import check_fields, check_positive

__all__ = [
    "PURSUER",
    "EVADER",
    "ROLES",
    "RewardConfig",
    "total_reward",
]

PURSUER = "pursuer"
EVADER = "evader"
ROLES = (PURSUER, EVADER)  # every per-role sequence follows this order


@dataclass(frozen=True)
class RewardConfig:
    """Coefficients of the shaping terms and their balance weights."""

    repulsion_coeff: float = 10.0
    attraction_coeff: float = 5.0
    success_coeff: float = 20.0
    repulsion_weight: float = 5.0
    attraction_weight: float = 10.0

    def __post_init__(self):
        check_fields(self)
        check_positive(self, [f.name for f in fields(self)])


def total_reward(
    d_obstacle_prev: float,
    d_obstacle_next: float,
    d_opponent_prev: float,
    d_opponent_next: float,
    captured: bool,
    role: str,
    cfg: RewardConfig,
) -> float:
    """Weighted balance of repulsion and attraction plus the capture bonus.

    Repulsion ``1 - exp(-repulsion_coeff * Δd_obstacle)`` rewards moving away
    from the nearest obstacle, the same for both roles.  Attraction
    ``exp(-attraction_coeff * Δd_opponent) - 1`` rewards the pursuer for
    closing the gap, and the capture bonus ``success_coeff`` is paid on the
    capture step; the evader gets both negated.  ``tests/test_reward.py``
    keeps each term as a function of its own, the reference this sum must
    match bit for bit.
    """
    repulsion = 1.0 - math.exp(-cfg.repulsion_coeff * (d_obstacle_next - d_obstacle_prev))
    attraction = math.exp(-cfg.attraction_coeff * (d_opponent_next - d_opponent_prev)) - 1.0
    if role == PURSUER:
        success = cfg.success_coeff if captured else 0.0
    elif role == EVADER:
        attraction = -attraction
        success = -cfg.success_coeff if captured else 0.0
    else:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")
    return cfg.repulsion_weight * repulsion + cfg.attraction_weight * attraction + success
