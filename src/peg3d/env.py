"""Box arena with fixed-step agent kinematics, spherical obstacles, and capture tests.

Agents move at constant speed along a persistent heading given by an azimuth
``alpha`` (angle in the x-y plane from the x-axis) and a polar angle ``theta``
(from the z-axis).  A step's turn changes the heading, then the agent advances
``speed * dt`` along it; positions are clipped to the arena box so agents
slide along walls instead of leaving the arena.

Positions are plain ``(x, y, z)`` tuples: the stepping functions sit in the
innermost simulation loop and scalar math beats tiny-array overhead there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "TURN_LIMIT",
    "RUNNING",
    "CAPTURED",
    "TIMEOUT",
    "OPEN_CLEARANCE",
    "AgentState",
    "Obstacle",
    "Arena",
    "heading_vector",
    "wrap_angle",
    "step_agent",
    "cone_limited_command",
    "check_termination",
    "nearest_obstacle",
]

# Per-step steering limit on each command channel, radians.
TURN_LIMIT = math.pi / 4.0

RUNNING = "running"
CAPTURED = "captured"
TIMEOUT = "timeout"

# The obstacle clearance, in metres, that an arena without obstacles reports.
OPEN_CLEARANCE = 35.0


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def heading_vector(alpha: float, theta: float) -> tuple[float, float, float]:
    """Unit direction for azimuth ``alpha`` and polar angle ``theta``."""
    sin_theta = math.sin(theta)
    return (sin_theta * math.cos(alpha), sin_theta * math.sin(alpha), math.cos(theta))


class AgentState(NamedTuple):
    """Position, persistent heading angles, and constant speed of one agent.

    Immutable.  A named tuple, since it is cheaper to build than a frozen
    dataclass and the step loop builds one per agent per step.
    """

    position: tuple[float, float, float]
    alpha: float
    theta: float
    speed: float


@dataclass(frozen=True, slots=True)
class Obstacle:
    """Spherical obstacle."""

    center: tuple[float, float, float]
    radius: float

    def surface_distance(self, pos) -> float:
        """Signed distance from ``pos`` to the obstacle surface (negative inside)."""
        return math.dist(pos, self.center) - self.radius


@dataclass
class Arena:
    """One episode's world: box extents, obstacles, play budget, and capture rule.

    Built by ``scenarios.build_arena`` from a checked ``TrainConfig`` and
    obstacle layout, so it holds no defaults or checks of its own.
    """

    extents: tuple[float, float, float]
    obstacles: list[Obstacle]
    capture_distance: float
    max_plays: int
    dt: float


def step_agent(
    state: AgentState, dalpha: float, dtheta: float, dt: float, arena: Arena
) -> AgentState:
    """Advance one agent by one time step.

    The turn ``(dalpha, dtheta)``, each clamped to the turn limit, changes the
    persistent heading (azimuth wraps, polar clamps to [0, pi]); the agent
    then moves ``speed * dt`` along the heading and is clipped to the arena box.
    """
    # Each clamp is max(-TURN_LIMIT, min(TURN_LIMIT, turn)) written as the two
    # comparisons those builtins make, so NaN, infinities and -0.0 come out the same.
    limit = TURN_LIMIT
    turn = dalpha if dalpha < limit else limit
    alpha = wrap_angle(state.alpha + (turn if turn > -limit else -limit))
    turn = dtheta if dtheta < limit else limit
    theta = state.theta + (turn if turn > -limit else -limit)
    if theta < 0.0:
        theta = 0.0
    elif theta > math.pi:
        theta = math.pi
    step = state.speed * dt
    sin_theta = math.sin(theta)
    x, y, z = state.position
    x += step * sin_theta * math.cos(alpha)
    y += step * sin_theta * math.sin(alpha)
    z += step * math.cos(theta)
    ex, ey, ez = arena.extents
    position = (
        ex if x > ex else (0.0 if x < 0.0 else x),
        ey if y > ey else (0.0 if y < 0.0 else y),
        ez if z > ez else (0.0 if z < 0.0 else z),
    )
    return AgentState(position, alpha, theta, state.speed)


def cone_limited_command(
    state: AgentState,
    dalpha: float,
    dtheta: float,
    target: tuple[float, float, float],
    max_offset: float,
) -> tuple[float, float]:
    """Restrict a steering command to a cone of directions around ``target``.

    If applying ``(dalpha, dtheta)`` would leave the heading within
    ``max_offset`` radians of the ``target`` direction, the command passes
    through (clamped to the turn limit).  Otherwise the command is replaced
    by the fastest legal turn toward ``target``, so the agent converges back
    into its motion envelope within a few steps.  Inputs and outputs are
    per-step heading increments.
    """
    limit = TURN_LIMIT  # clamps as in step_agent: max(-limit, min(limit, turn))
    da = dalpha if dalpha < limit else limit
    da = da if da > -limit else -limit
    dth = dtheta if dtheta < limit else limit
    dth = dth if dth > -limit else -limit
    tx, ty, tz = target
    t_norm = math.sqrt(tx * tx + ty * ty + tz * tz)
    if t_norm < 1e-12:
        return da, dth
    alpha = wrap_angle(state.alpha + da)
    theta = state.theta + dth
    theta = 0.0 if theta < 0.0 else (math.pi if theta > math.pi else theta)
    sin_theta = math.sin(theta)  # the heading_vector of (alpha, theta)
    cosine = (
        sin_theta * math.cos(alpha) * tx + sin_theta * math.sin(alpha) * ty + math.cos(theta) * tz
    ) / t_norm
    cosine = cosine if cosine < 1.0 else 1.0
    if math.acos(cosine if cosine > -1.0 else -1.0) <= max_offset:
        return da, dth
    horizontal = math.hypot(tx, ty)
    alpha_star = math.atan2(ty, tx) if horizontal > 1e-12 else state.alpha
    theta_star = math.atan2(horizontal, tz)
    da = wrap_angle(alpha_star - state.alpha)
    da = da if da < limit else limit
    dth = theta_star - state.theta
    dth = dth if dth < limit else limit
    return (da if da > -limit else -limit), (dth if dth > -limit else -limit)


def check_termination(pursuer: AgentState, evader: AgentState, arena: Arena, steps: int) -> str:
    """Episode outcome after ``steps`` plays.

    Capture (separation at or below the capture distance) takes precedence
    over a simultaneous timeout (``steps`` has reached the play budget).
    """
    if math.dist(pursuer.position, evader.position) <= arena.capture_distance:
        return CAPTURED
    if steps >= arena.max_plays:
        return TIMEOUT
    return RUNNING


def nearest_obstacle(pos, arena: Arena) -> tuple[Obstacle | None, float]:
    """Closest obstacle to ``pos`` and its signed surface distance.

    With no obstacles returns ``(None, OPEN_CLEARANCE)``, the far end of
    ``learner.DISTANCE_DOMAIN``, so downstream consumers see a far, inert sentinel.
    """
    best = None
    best_dist = OPEN_CLEARANCE
    for obs in arena.obstacles:
        dist = math.dist(pos, obs.center) - obs.radius
        if best is None or dist < best_dist:
            best = obs
            best_dist = dist
    return best, best_dist

