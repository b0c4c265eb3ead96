"""Scenario presets, random obstacle layouts, and INI config files.

A scenario fixes the start positions and the obstacle specification; training
and reward hyperparameters live in :class:`TrainConfig`.  Config files are
flat key-value INI with one section per parameter group; every value has a
default, so a config file only needs the keys it overrides.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._fields import build, cast, check_fields, check_int, check_positive
from .env import Arena, AgentState, Obstacle
from .learner import LearnerConfig
from .reward import ROLES, RewardConfig

__all__ = [
    "CONFIG_SCHEMA",
    "FREEZE_MODES",
    "INI_SECTIONS",
    "LOG_STEPS_MODES",
    "TrainConfig",
    "Scenario",
    "builtin_scenarios",
    "place_obstacles",
    "realize_obstacles",
    "initial_states",
    "build_arena",
    "check_scenario",
    "load_config",
]

CONFIG_SCHEMA = "peg3d.config.v1"
FREEZE_MODES = ("none", *ROLES)
LOG_STEPS_MODES = ("none", "final", "all")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the scenario."""

    episodes: int = 200
    max_plays: int = 1000
    dt: float = 0.1
    seed: int = 0
    capture_distance: float = 1.0
    pursuer_speed: float = 1.1
    evader_speed: float = 1.0
    arena_extents: tuple[float, float, float] = (35.0, 35.0, 20.0)
    cone_constraint: bool = True
    freeze: str = "none"  # one of FREEZE_MODES
    log_steps: str = "final"  # one of LOG_STEPS_MODES
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)

    def __post_init__(self):
        check_fields(self)
        for name, least in (("episodes", 1), ("max_plays", 1), ("seed", 0)):
            check_int(name, getattr(self, name), least)
        check_positive(self, ("dt", "capture_distance", "pursuer_speed", "evader_speed"))
        for axis, extent in zip("xyz", self.arena_extents):
            if not 0.0 < extent < math.inf:
                raise ValueError(f"arena extent {axis} must be finite and > 0, got {extent!r}")
        for name, modes in (("freeze", FREEZE_MODES), ("log_steps", LOG_STEPS_MODES)):
            if getattr(self, name) not in modes:
                raise ValueError(f"{name} must be {'|'.join(modes)}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Start positions plus an obstacle specification.

    ``obstacles`` holds explicit spheres as ``(x, y, z, radius)`` rows; when
    ``None``, each episode draws ``obstacle_count`` spheres uniformly inside
    the arena, rejecting any whose surface comes within ``obstacle_margin``
    of either start.  Headings default to the chase axis: the pursuer starts
    facing the evader and the evader facing directly away.  Values that need
    no config are checked here; :func:`check_scenario` checks the rest.
    """

    name: str = "custom"
    pursuer_start: tuple[float, float, float]
    evader_start: tuple[float, float, float]
    obstacles: tuple[tuple[float, float, float, float], ...] | None = None
    obstacle_count: int = 3
    obstacle_radius: float = 1.0
    obstacle_margin: float = 3.0
    pursuer_heading: tuple[float, float] | None = None  # (alpha, theta)
    evader_heading: tuple[float, float] | None = None

    def __post_init__(self):
        check_fields(self)
        for name in ("pursuer_heading", "evader_heading"):
            heading = getattr(self, name)
            if heading and not all(map(math.isfinite, heading)):
                raise ValueError(f"{name} must be finite, got {heading!r}")
            if heading and not 0.0 <= heading[1] <= math.pi:  # step_agent would snap theta into it
                raise ValueError(f"{name} polar angle must lie in [0, pi], got {heading!r}")
        if self.obstacles is None:
            check_int("obstacle_count", self.obstacle_count, 0)
        margin = self.obstacle_margin  # a negative one would let an obstacle cover a start
        if self.obstacles is None and not 0.0 <= margin < math.inf:
            raise ValueError(f"obstacle_margin must be finite and >= 0, got {margin!r}")
        for row in self.obstacles or ():
            if not 0.0 < row[3] < math.inf:
                raise ValueError(f"obstacle radius must be finite and > 0, got {row[3]!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def builtin_scenarios() -> dict[int, Scenario]:
    """The four standard start configurations, numbered 1..4."""
    starts = [
        ((5.0, 30.0, 0.0), (5.0, 5.0, 0.0)),
        ((5.0, 5.0, 0.0), (30.0, 30.0, 0.0)),
        ((30.0, 30.0, 0.0), (30.0, 5.0, 0.0)),
        ((30.0, 30.0, 0.0), (5.0, 30.0, 0.0)),
    ]
    return {
        i + 1: Scenario(name=f"scenario-{i + 1}", pursuer_start=p, evader_start=e)
        for i, (p, e) in enumerate(starts)
    }


def place_obstacles(
    rng: np.random.Generator,
    extents: tuple[float, float, float],
    count: int,
    radius: float,
    keepout_points,
    margin: float,
    max_attempts: int = 10_000,
) -> list[Obstacle]:
    """Sample obstacle centers uniformly inside the arena.

    A placement is rejected when the sphere surface comes within ``margin``
    of any keepout point (the agents' starts), or would poke out of the box.
    Raises ``ValueError`` when the radius does not fit the box, or when
    ``max_attempts`` draws in a row are all rejected.
    """
    if not radius > 0.0:
        raise ValueError(f"obstacle_radius must be > 0, got {radius!r}")
    low = (radius, radius, radius)
    high = tuple(float(extent) - radius for extent in extents)
    if any(radius > hi for hi in high):
        raise ValueError(f"obstacle_radius {radius!r} exceeds half the arena extents {extents!r}")
    keepout = [tuple(map(float, p)) for p in keepout_points]
    obstacles: list[Obstacle] = []
    for _ in range(count):
        for _ in range(max_attempts):
            center = tuple(rng.uniform(low, high).tolist())
            if all(math.dist(center, p) - radius >= margin for p in keepout):
                obstacles.append(Obstacle(center=center, radius=radius))
                break
        else:
            raise ValueError(
                f"no obstacle of radius {radius!r} clears the starts by obstacle_margin "
                f"{margin!r} in {max_attempts} draws"
            )
    return obstacles


def realize_obstacles(
    scenario: Scenario, config: TrainConfig, rng: np.random.Generator | None
) -> list[Obstacle]:
    """Explicit obstacle list, or a fresh random layout drawn from ``rng``."""
    if scenario.obstacles is not None:
        return [
            Obstacle(center=tuple(float(v) for v in row[:3]), radius=float(row[3]))
            for row in scenario.obstacles
        ]
    if scenario.obstacle_count == 0:
        return []
    if rng is None:
        raise ValueError("random obstacle layout requested but no RNG supplied")
    return place_obstacles(
        rng,
        config.arena_extents,
        scenario.obstacle_count,
        scenario.obstacle_radius,
        keepout_points=[scenario.pursuer_start, scenario.evader_start],
        margin=scenario.obstacle_margin,
    )


def build_arena(config: TrainConfig, obstacles) -> Arena:
    return Arena(
        extents=config.arena_extents,
        obstacles=list(obstacles),
        capture_distance=config.capture_distance,
        max_plays=config.max_plays,
        dt=config.dt,
    )


def check_scenario(scenario: Scenario, config: TrainConfig) -> None:
    """Reject a scenario that does not fit ``config``, before any episode.

    Each dataclass checks its own values when it is built; this checks the
    two together.  Explicit obstacles must lie fully inside the arena box, and
    each start in the box and outside them.  For random obstacles it draws one
    trial layout, so that a radius that does not fit the box or a margin no
    draw meets fails here.  The trial has a generator of its own: the runs'
    streams are not touched.
    """
    box = config.arena_extents
    obstacles = realize_obstacles(scenario, config, None) if scenario.obstacles else []
    for obs in obstacles:
        if not all(obs.radius <= c <= hi - obs.radius for c, hi in zip(obs.center, box)):
            raise ValueError(f"obstacle at {obs.center} not fully inside arena")
    for role, start in (("pursuer", scenario.pursuer_start), ("evader", scenario.evader_start)):
        if not all(0.0 <= c <= hi for c, hi in zip(start, box)):
            raise ValueError(f"{role}_start must be 3 floats in the arena {box!r}, got {start!r}")
        if any(obs.surface_distance(start) < 0.0 for obs in obstacles):
            raise ValueError(f"{role}_start {start!r} lies inside an obstacle")
    if scenario.obstacles is None:
        realize_obstacles(scenario, config, np.random.default_rng(0))


def _chase_axis_heading(pursuer_start, evader_start) -> tuple[float, float]:
    dx, dy, dz = (float(e) - float(p) for p, e in zip(pursuer_start, evader_start))
    n = math.sqrt(dx * dx + dy * dy + dz * dz)
    if n < 1e-12:
        return 0.0, math.pi / 2.0
    return math.atan2(dy, dx), math.acos(max(-1.0, min(1.0, dz / n)))


def initial_states(scenario: Scenario, config: TrainConfig) -> tuple[AgentState, AgentState]:
    """Starting states for both agents.

    Unless the scenario pins headings explicitly, both agents start aligned
    with the chase axis: the pursuer faces the evader, the evader faces away
    from the pursuer (the same direction vector, seen from each end).
    """
    auto = _chase_axis_heading(scenario.pursuer_start, scenario.evader_start)
    states = []
    for start, heading, speed in (
        (scenario.pursuer_start, scenario.pursuer_heading, config.pursuer_speed),
        (scenario.evader_start, scenario.evader_heading, config.evader_speed),
    ):
        alpha, theta = heading or auto
        states.append(
            AgentState(position=tuple(map(float, start)), alpha=alpha, theta=theta, speed=speed)
        )
    return tuple(states)


# --- INI config files -------------------------------------------------------

# The INI layout: section -> (the dataclass its keys set, the keys).  A key is
# its field's name, except [arena] ``extents``, which sets ``arena_extents``.
# Defaults come from the dataclasses, casts from the fields' declared types.
# [config] holds only the schema, which load_config reads itself.
INI_SECTIONS = {
    "config": (None, ("schema",)),
    "train": (TrainConfig, ("episodes", "max_plays", "seed", "freeze", "log_steps")),
    "arena": (TrainConfig, ("extents", "dt", "capture_distance")),
    "agents": (TrainConfig, ("pursuer_speed", "evader_speed", "cone_constraint")),
    "learner": (LearnerConfig, tuple(f.name for f in fields(LearnerConfig))),
    "reward": (RewardConfig, tuple(f.name for f in fields(RewardConfig))),
    "scenario": (Scenario, tuple(f.name for f in fields(Scenario))),
}


def load_config(path) -> tuple[TrainConfig | None, Scenario | None]:
    """Read an INI config file; returns its run config and its scenario.

    Each is ``None`` when the file sets none of its keys, so a caller that
    wants the defaults writes ``config or TrainConfig()``.  Unknown sections
    and keys, ``[DEFAULT]`` included, raise so typos do not silently fall
    back to defaults.
    """
    # No header names the default section "", so [DEFAULT] is an unknown section like any other.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
    with open(path) as fh:
        parser.read_file(fh)

    schema = parser.get("config", "schema", fallback=CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ValueError(f"unsupported config schema {schema!r} (expected {CONFIG_SCHEMA})")

    values = {cls: {} for cls, _ in INI_SECTIONS.values() if cls is not None}
    for section in parser.sections():
        if section not in INI_SECTIONS:
            raise ValueError(f"unknown config section [{section}] in {path}")
        cls, keys = INI_SECTIONS[section]
        for key, text in parser.items(section):
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in section [{section}] of {path}")
            if cls is None:  # [config]: its schema was read above
                continue
            name = "arena_extents" if key == "extents" else key
            try:
                values[cls][name] = cast(cls, name, text)
            except ValueError as exc:
                raise ValueError(f"{exc} (key {key!r} in section [{section}] of {path})") from None

    scenario = values.pop(Scenario)
    run = {**values[TrainConfig], "learner": values[LearnerConfig], "reward": values[RewardConfig]}
    config = build(TrainConfig, run) if any(values.values()) else None
    return config, build(Scenario, scenario) if scenario else None
