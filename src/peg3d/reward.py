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
    "RewardConfig",
    "repulsion_reward",
    "attraction_reward",
    "success_reward",
    "total_reward",
]

PURSUER = "pursuer"
EVADER = "evader"
_ROLES = (PURSUER, EVADER)


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


def _check_role(role: str):
    if role not in _ROLES:
        raise ValueError(f"role must be one of {_ROLES}, got {role!r}")


def repulsion_reward(d_prev: float, d_next: float, cfg: RewardConfig) -> float:
    """Reward for the change in signed surface distance to the nearest obstacle.

    Zero when the distance is unchanged, approaching 1 as the agent retreats,
    exponentially negative as it advances on the obstacle.  Same form for
    both roles.
    """
    return 1.0 - math.exp(-cfg.repulsion_coeff * (d_next - d_prev))


def attraction_reward(d_prev: float, d_next: float, role: str, cfg: RewardConfig) -> float:
    """Reward for the change in pursuer-evader separation.

    Positive for the pursuer when the gap shrinks; the evader gets the
    negated value.
    """
    _check_role(role)
    r = math.exp(-cfg.attraction_coeff * (d_next - d_prev)) - 1.0
    return r if role == PURSUER else -r


def success_reward(captured: bool, role: str, cfg: RewardConfig) -> float:
    """Terminal capture bonus: positive for the pursuer, negated for the evader."""
    _check_role(role)
    if not captured:
        return 0.0
    return cfg.success_coeff if role == PURSUER else -cfg.success_coeff


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

    The three public terms in one body, each with its own operations in its
    own order, so the sum is bit for bit their weighted sum.
    """
    repulsion = 1.0 - math.exp(-cfg.repulsion_coeff * (d_obstacle_next - d_obstacle_prev))
    attraction = math.exp(-cfg.attraction_coeff * (d_opponent_next - d_opponent_prev)) - 1.0
    if role == PURSUER:
        success = cfg.success_coeff if captured else 0.0
    elif role == EVADER:
        attraction = -attraction
        success = -cfg.success_coeff if captured else 0.0
    else:
        _check_role(role)  # raises
    return cfg.repulsion_weight * repulsion + cfg.attraction_weight * attraction + success
