"""Fuzzy actor-critic learner.

One learner per agent: a critic weight vector estimates state value over the
rule firing features, and one actor weight vector per output channel maps the
same features to a steering command.  Exploration perturbs the commanded
action with Gaussian noise; the temporal-difference error then scales both
the critic step and a perturbation-correlated actor step.
"""

from __future__ import annotations

import math

import numpy as np

from .env import AgentState, Arena, heading_vector, nearest_obstacle

__all__ = [
    "ACTION_LIMIT",
    "CHANNELS",
    "FuzzyActorCritic",
    "extract_inputs",
]

# Commands saturate here, matching the arena's per-step steering limit.
ACTION_LIMIT = math.pi / 4.0

# Output channels: azimuth turn, polar turn.
CHANNELS = ("dalpha", "dtheta")

_COINCIDENT_TOL = 1e-12


class FuzzyActorCritic:
    """Actor-critic weights over rule firing features, with their update rules.

    The actor learning rate must stay below the critic's so the policy moves
    on a slower timescale than the value estimate it trusts.
    """

    def __init__(
        self,
        n_rules: int,
        n_channels: int = 2,
        alpha_actor: float = 0.001,
        alpha_critic: float = 0.05,
        gamma: float = 0.95,
        sigma: float = 0.1,
        action_limit: float = ACTION_LIMIT,
    ):
        if not alpha_actor < alpha_critic:
            raise ValueError(
                f"actor rate must be below critic rate, got {alpha_actor} >= {alpha_critic}"
            )
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {gamma}")
        if sigma <= 0.0:
            raise ValueError("exploration stddev must be positive")
        self.n_rules = int(n_rules)
        self.n_channels = int(n_channels)
        self.alpha_actor = float(alpha_actor)
        self.alpha_critic = float(alpha_critic)
        self.gamma = float(gamma)
        self.sigma = float(sigma)
        self.action_limit = float(action_limit)
        self.actor = np.zeros((self.n_channels, self.n_rules))
        self.critic = np.zeros(self.n_rules)

    def act(self, phi: np.ndarray, rng: np.random.Generator | None = None):
        """Commanded and executed actions for the current firing vector.

        Returns ``(u, u_exec)``: the raw per-channel actor outputs and the
        executed actions, which add exploration noise (when ``rng`` is given)
        and are clamped to the action limit.  The executed action is what
        both the environment and the actor update must see.
        """
        u = self.actor @ phi
        if rng is not None:
            u_exec = u + rng.normal(0.0, self.sigma, size=u.shape)
            np.maximum(u_exec, -self.action_limit, out=u_exec)
        else:
            u_exec = np.maximum(u, -self.action_limit)
        np.minimum(u_exec, self.action_limit, out=u_exec)
        return u, u_exec

    def value(self, phi: np.ndarray) -> float:
        """Critic state-value estimate for a firing vector."""
        return float(self.critic @ phi)

    def td_error(
        self, phi_t: np.ndarray, phi_next: np.ndarray | None, reward: float, terminal: bool
    ) -> float:
        """Temporal-difference error; terminal successor states count as value 0."""
        v_next = 0.0 if terminal else self.value(phi_next)
        return reward + self.gamma * v_next - self.value(phi_t)

    def update_critic(self, phi: np.ndarray, delta: float):
        """Move the critic along the firing features by the TD error."""
        self.critic += (self.alpha_critic * delta) * phi

    def update_actor(self, phi: np.ndarray, u: np.ndarray, u_exec, delta: float):
        """Reinforce the executed perturbation in proportion to the TD error.

        Per channel the weight step is
        ``alpha_actor * delta * (u_exec - u) / sigma * phi``; a zero
        perturbation or zero TD error leaves the actor untouched.
        ``u_exec`` may be any per-channel sequence, such as the plain floats
        the environment executed.
        """
        scale = (self.alpha_actor * delta / self.sigma) * (u_exec - u)
        self.actor += scale[:, None] * phi[None, :]

    def state_dict(self) -> dict:
        """Weights and hyperparameters as plain JSON-ready types."""
        return {
            "n_rules": self.n_rules,
            "n_channels": self.n_channels,
            "alpha_actor": self.alpha_actor,
            "alpha_critic": self.alpha_critic,
            "gamma": self.gamma,
            "sigma": self.sigma,
            "action_limit": self.action_limit,
            "actor": self.actor.tolist(),
            "critic": self.critic.tolist(),
        }

    @classmethod
    def from_state_dict(cls, data: dict) -> "FuzzyActorCritic":
        learner = cls(
            n_rules=data["n_rules"],
            n_channels=data["n_channels"],
            alpha_actor=data["alpha_actor"],
            alpha_critic=data["alpha_critic"],
            gamma=data["gamma"],
            sigma=data["sigma"],
            action_limit=data.get("action_limit", ACTION_LIMIT),
        )
        actor = np.asarray(data["actor"], dtype=float)
        critic = np.asarray(data["critic"], dtype=float)
        if actor.shape != learner.actor.shape or critic.shape != learner.critic.shape:
            raise ValueError(
                f"weight shapes {actor.shape}/{critic.shape} do not match "
                f"declared layout {learner.actor.shape}/{learner.critic.shape}"
            )
        learner.actor = actor
        learner.critic = critic
        return learner


def _heading_offset(heading, dx: float, dy: float, dz: float, norm: float) -> float:
    """Angle between a unit heading and the vector (dx, dy, dz) of length ``norm``."""
    cosine = (heading[0] * dx + heading[1] * dy + heading[2] * dz) / norm
    return math.acos(max(-1.0, min(1.0, cosine)))


def extract_inputs(
    agent: AgentState,
    opponent: AgentState,
    arena: Arena,
    nearest: tuple | None = None,
) -> tuple[float, float, float, float]:
    """Four chase features seen from ``agent``'s side.

    ``(opponent distance, heading offset from the opponent line,
    nearest-obstacle surface distance, heading offset from the obstacle line)``.
    The same formula serves pursuer and evader: each measures angles from its
    own heading to the line toward its opponent.  Coincident points yield
    angle 0 by convention; with no obstacles the sensing-range sentinel is
    paired with angle 0.  Callers that already looked up the agent's nearest
    obstacle can pass it as ``nearest`` to skip the repeat query.
    """
    ox, oy, oz = agent.position
    tx, ty, tz = opponent.position
    dx, dy, dz = tx - ox, ty - oy, tz - oz
    d_opponent = math.sqrt(dx * dx + dy * dy + dz * dz)
    heading = heading_vector(agent.alpha, agent.theta)
    if d_opponent < _COINCIDENT_TOL:
        angle_opponent = 0.0
    else:
        angle_opponent = _heading_offset(heading, dx, dy, dz, d_opponent)
    obstacle, d_obstacle = nearest if nearest is not None else nearest_obstacle(
        agent.position, arena
    )
    if obstacle is None:
        angle_obstacle = 0.0
    else:
        bx, by, bz = obstacle.center
        vx, vy, vz = bx - ox, by - oy, bz - oz
        center_dist = math.sqrt(vx * vx + vy * vy + vz * vz)
        if center_dist < _COINCIDENT_TOL:
            angle_obstacle = 0.0
        else:
            angle_obstacle = _heading_offset(heading, vx, vy, vz, center_dist)
    return (d_opponent, angle_opponent, d_obstacle, angle_obstacle)
