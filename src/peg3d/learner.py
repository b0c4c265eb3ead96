"""Fuzzy actor-critic learner.

One learner per agent: a critic weight vector estimates state value over the
rule firing features, and one actor weight vector per output channel maps the
same features to a steering command.  Exploration perturbs the commanded
action with Gaussian noise; the temporal-difference error then scales both
the critic step and a perturbation-correlated actor step.

The noise comes from a :func:`noise_stream`: standard normal draws of one
Generator, taken from blocks of ``NOISE_BLOCK`` values.  :meth:`FuzzyActorCritic.act`
takes two values per call, the azimuth channel's first.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._fields import _number, check_fields, check_int, check_positive
from .env import OPEN_CLEARANCE, TURN_LIMIT, AgentState
from .fuzzy import Firing

__all__ = [
    "ANGLE_DOMAIN",
    "CHANNELS",
    "DISTANCE_DOMAIN",
    "FuzzyActorCritic",
    "LearnerConfig",
    "NOISE_BLOCK",
    "extract_inputs",
    "noise_stream",
]

# Output channels: azimuth turn, polar turn.
CHANNELS = ("dalpha", "dtheta")

_COINCIDENT_TOL = 1e-12

# Standard normals a noise stream draws from its Generator at once.
NOISE_BLOCK = 1024


def noise_stream(rng: np.random.Generator) -> Iterator[float]:
    """``rng``'s standard normal draws as plain floats, one per ``next``, without end.

    They are drawn ``NOISE_BLOCK`` at a time, and values left in a block wait
    for the next ``next``.  ``0.0 + sigma * z`` of each value ``z`` is bit for
    bit what ``rng.normal(0.0, sigma)`` returns at the same point of ``rng``'s
    stream, since the Generator draws each normal on its own.
    """
    while True:
        yield from rng.standard_normal(NOISE_BLOCK).tolist()


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters shared by both agents' learners, and their rule layout.

    The actor learning rate must stay below the critic's so the policy moves
    on a slower timescale than the value estimate it trusts.
    """

    alpha_actor: float = 0.001
    alpha_critic: float = 0.05
    gamma: float = 0.95
    sigma: float = 0.1
    mfs_per_input: int = 5

    def __post_init__(self):
        check_fields(self)
        check_positive(self, ("alpha_actor", "alpha_critic", "sigma"))
        if not self.alpha_actor < self.alpha_critic:
            actor, critic = self.alpha_actor, self.alpha_critic
            raise ValueError(f"actor rate must be below critic rate, got {actor} >= {critic}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {self.gamma}")
        check_int("mfs_per_input", self.mfs_per_input, 2)


class FuzzyActorCritic:
    """Actor-critic weights over rule firing features, with their update rules.

    One actor row per output channel in :data:`CHANNELS`; the hyperparameters
    are read from ``config``.  Each actor row and the critic are plain lists
    of floats, one weight per rule (``np.asarray`` gives them as arrays).
    Every method reads or moves only the weights of the rules a
    :class:`~peg3d.fuzzy.Firing` fired, and sums over them left to right in
    ascending rule order.
    """

    # Commands saturate here, matching the arena's per-step steering limit.
    action_limit = TURN_LIMIT

    def __init__(self, n_rules: int, config: LearnerConfig):
        self.config = config
        self.actor = [[0.0] * n_rules for _ in CHANNELS]
        self.critic = [0.0] * n_rules

    def act(self, phi: Firing, noise: Iterator[float] | None = None):
        """Commanded and executed actions for the current firing.

        Returns ``(u, u_exec)``: ``u`` is the ndarray of raw per-channel actor
        outputs, and ``u_exec`` the executed action as a tuple of plain
        floats, one per channel, clamped to the action limit.  With a
        ``noise`` stream (see :func:`noise_stream`) ``u_exec`` adds
        exploration noise ``0.0 + sigma * z`` for the stream's next two
        values ``z``, azimuth first: the bits of
        ``rng.normal(0.0, sigma, 2)``.  Without one nothing is drawn.  The
        executed action is what both the environment and the actor update
        must see.
        """
        w_alpha, w_theta = self.actor
        dalpha = dtheta = 0.0
        for rule, strength in phi.pairs:
            dalpha += w_alpha[rule] * strength
            dtheta += w_theta[rule] * strength
        u = np.array((dalpha, dtheta))
        if noise is not None:
            sigma = self.config.sigma
            dalpha += 0.0 + sigma * next(noise)
            dtheta += 0.0 + sigma * next(noise)
        # Clamped with comparisons on plain floats, so a NaN comes through as NaN.
        high = self.action_limit
        low = -high
        dalpha = low if dalpha < low else high if dalpha > high else dalpha
        dtheta = low if dtheta < low else high if dtheta > high else dtheta
        return u, (dalpha, dtheta)

    def td_error(
        self, phi_t: Firing, phi_next: Firing | None, reward: float, terminal: bool
    ) -> float:
        """Temporal-difference error; terminal successor states count as value 0."""
        critic = self.critic
        v_next = 0.0
        if not terminal:
            for rule, strength in phi_next.pairs:
                v_next += critic[rule] * strength
        v_now = 0.0
        for rule, strength in phi_t.pairs:
            v_now += critic[rule] * strength
        return reward + self.config.gamma * v_next - v_now

    def update_critic(self, phi: Firing, delta: float):
        """Move the critic along the firing features by the TD error."""
        step = self.config.alpha_critic * delta
        critic = self.critic
        for rule, strength in phi.pairs:
            critic[rule] += step * strength

    def update_actor(self, phi: Firing, u: np.ndarray, u_exec, delta: float):
        """Reinforce the executed perturbation in proportion to the TD error.

        Per channel the weight step is
        ``alpha_actor * delta * (u_exec - u) / sigma * phi``; a zero
        perturbation or zero TD error leaves the actor untouched.
        ``u_exec`` is the executed action as a pair of plain floats, such as
        the tuple :meth:`act` returns after the environment's cone limit.
        """
        config = self.config
        c = config.alpha_actor * delta / config.sigma
        (exec_alpha, exec_theta), (u_alpha, u_theta) = u_exec, u.tolist()
        scale_alpha, scale_theta = c * (exec_alpha - u_alpha), c * (exec_theta - u_theta)
        w_alpha, w_theta = self.actor
        for rule, strength in phi.pairs:
            w_alpha[rule] += scale_alpha * strength
            w_theta[rule] += scale_theta * strength

    def state_dict(self) -> dict:
        """Actor and critic weights as plain JSON-ready lists (copies)."""
        return {"actor": [list(row) for row in self.actor], "critic": list(self.critic)}

    def load_state_dict(self, data: dict):
        """Take the weights of a :meth:`state_dict`, checked by :meth:`checked_weights`."""
        self.actor, self.critic = self.checked_weights(data, len(self.critic))

    @staticmethod
    def checked_weights(data: dict, n_rules: int) -> tuple[list[list[float]], list[float]]:
        """State dict ``data``'s actor rows and critic for ``n_rules`` rules, as new float lists.

        ``ValueError``, in this order, on: an ``actor`` that is not a list of
        lists or a ``critic`` that is not a list; a weight that is not a
        number (ints pass as floats; bools, strings, None and lists do not);
        rows of other than ``n_rules`` weights, or other than one actor row
        per channel; a NaN or infinite weight.  A weight's message names the
        part and the index, as in ``actor[1, 17] must be finite, got nan``.
        """
        actor, critic = data["actor"], data["critic"]
        if not isinstance(actor, list) or not all(isinstance(row, list) for row in actor):
            raise ValueError(f"actor must be a list of lists of floats, got {reprlib.repr(actor)}")
        if not isinstance(critic, list):
            raise ValueError(f"critic must be a list of floats, got {reprlib.repr(critic)}")
        rows = [*((f"actor[{i}, ", row) for i, row in enumerate(actor)), ("critic[", critic)]

        def check(test, kind):
            for lead, row in rows:
                for j, weight in enumerate(row):
                    if not test(weight):
                        raise ValueError(f"{lead}{j}] must be {kind}, got {weight!r}")

        check(_number, "a float")
        counts = [len(row) for row in actor], len(critic)
        layout = [n_rules] * len(CHANNELS), n_rules
        if counts != layout:
            raise ValueError(
                f"weight counts (actor {counts[0]}, critic {counts[1]}) do not match "
                f"the layout (actor {layout[0]}, critic {layout[1]})"
            )
        check(math.isfinite, "finite")
        return [list(map(float, row)) for row in actor], list(map(float, critic))


# The rule grid's input domains, one per kind of feature extract_inputs returns:
# distances in metres, up to an open arena's clearance, and heading offsets in radians.
DISTANCE_DOMAIN = (0.0, OPEN_CLEARANCE)
ANGLE_DOMAIN = (-math.pi, math.pi)


def extract_inputs(
    agent: AgentState, opponent: AgentState, nearest: tuple
) -> tuple[float, float, float, float]:
    """Four chase features seen from ``agent``'s side.

    ``(opponent distance, heading offset from the opponent line,
    nearest-obstacle surface distance, heading offset from the obstacle line)``.
    The same formula serves pursuer and evader: each measures angles from its
    own heading to the line toward its opponent.  Coincident points yield
    angle 0 by convention.  ``nearest`` is the agent's
    ``env.nearest_obstacle(agent.position, arena)``; with no obstacles its
    ``OPEN_CLEARANCE`` sentinel is paired with angle 0.
    """
    ox, oy, oz = agent.position
    tx, ty, tz = opponent.position
    dx, dy, dz = tx - ox, ty - oy, tz - oz
    d_opponent = math.sqrt(dx * dx + dy * dy + dz * dz)
    # The agent's heading_vector, and each offset as acos of the cosine clamped
    # to max(-1.0, min(1.0, cosine)), written as the comparisons those make.
    alpha, theta = agent.alpha, agent.theta
    sin_theta = math.sin(theta)
    hx, hy, hz = sin_theta * math.cos(alpha), sin_theta * math.sin(alpha), math.cos(theta)
    if d_opponent < _COINCIDENT_TOL:
        angle_opponent = 0.0
    else:
        cosine = (hx * dx + hy * dy + hz * dz) / d_opponent
        cosine = cosine if cosine < 1.0 else 1.0
        angle_opponent = math.acos(cosine if cosine > -1.0 else -1.0)
    obstacle, d_obstacle = nearest
    if obstacle is None:
        angle_obstacle = 0.0
    else:
        bx, by, bz = obstacle.center
        vx, vy, vz = bx - ox, by - oy, bz - oz
        center_dist = math.sqrt(vx * vx + vy * vy + vz * vz)
        if center_dist < _COINCIDENT_TOL:
            angle_obstacle = 0.0
        else:
            cosine = (hx * vx + hy * vy + hz * vz) / center_dist
            cosine = cosine if cosine < 1.0 else 1.0
            angle_obstacle = math.acos(cosine if cosine > -1.0 else -1.0)
    return (d_opponent, angle_opponent, d_obstacle, angle_obstacle)
