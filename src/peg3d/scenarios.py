"""Scenario presets, random obstacle layouts, and INI config files.

A scenario fixes the start positions and the obstacle specification; training
and reward hyperparameters live in :class:`TrainConfig`.  Config files are
flat key-value INI with one section per parameter group; every value has a
default, so a config file only needs the keys it overrides.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .env import Arena, AgentState, Obstacle
from .learner import LearnerConfig
from .reward import RewardConfig

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
    "scenario_from_dict",
    "train_config_from_dict",
]

CONFIG_SCHEMA = "peg3d.config.v1"
FREEZE_MODES = ("none", "pursuer", "evader")
LOG_STEPS_MODES = ("none", "final", "all")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the scenario."""

    episodes: int = 200
    max_plays: int = 1000
    dt: float = 0.1
    seed: int = 0
    capture_distance: float = 1.0
    max_time: float = 100.0
    pursuer_speed: float = 1.1
    evader_speed: float = 1.0
    arena_extents: tuple[float, float, float] = (35.0, 35.0, 20.0)
    sensing_range: float = 35.0
    cone_constraint: bool = True
    freeze: str = "none"  # one of FREEZE_MODES
    log_steps: str = "final"  # one of LOG_STEPS_MODES
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.max_plays < 1:
            raise ValueError("max_plays must be >= 1")
        for name in ("pursuer_speed", "evader_speed"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        for name, modes in (("freeze", FREEZE_MODES), ("log_steps", LOG_STEPS_MODES)):
            if getattr(self, name) not in modes:
                raise ValueError(f"{name} must be {'|'.join(modes)}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(kw_only=True)
class Scenario:
    """Start positions plus an obstacle specification.

    ``obstacles`` holds explicit spheres as ``(x, y, z, radius)`` rows; when
    ``None``, each episode draws ``obstacle_count`` spheres uniformly inside
    the arena, rejecting any whose surface comes within ``obstacle_margin``
    of either start.  Headings default to the chase axis: the pursuer starts
    facing the evader and the evader facing directly away.
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
    margin: float = 3.0,
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
    low = np.array([radius, radius, radius])
    high = np.asarray(extents, dtype=float) - radius
    if np.any(low > high):
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
        max_time=config.max_time,
        dt=config.dt,
        sensing_range=config.sensing_range,
    )


def check_scenario(scenario: Scenario, config: TrainConfig) -> None:
    """Reject a scenario that cannot run under ``config``, before any episode.

    Builds the arena once (its checks cover the config and explicit obstacles),
    checks each start (3 floats in the box, outside explicit obstacles) and
    explicit heading (2 floats), then draws one trial random layout, so that a
    radius that does not fit the box or a margin no draw meets fails here.
    The trial has a generator of its own: the runs' streams are not touched.
    """
    obstacles = realize_obstacles(scenario, config, None) if scenario.obstacles else []
    box = build_arena(config, obstacles).extents
    if scenario.obstacles is None and scenario.obstacle_count < 0:
        raise ValueError(f"obstacle_count must be >= 0, got {scenario.obstacle_count}")
    for role, start, heading in (
        ("pursuer", scenario.pursuer_start, scenario.pursuer_heading),
        ("evader", scenario.evader_start, scenario.evader_heading),
    ):
        if len(start) != 3 or not all(0.0 <= c <= hi for c, hi in zip(start, box)):
            raise ValueError(f"{role}_start must be 3 floats in the arena {box!r}, got {start!r}")
        if any(obs.surface_distance(start) < 0.0 for obs in obstacles):
            raise ValueError(f"{role}_start {start!r} lies inside an obstacle")
        if heading and len(heading) != 2:
            raise ValueError(f"{role}_heading must be 2 floats (alpha theta), got {heading!r}")
    if scenario.obstacles is None:
        realize_obstacles(scenario, config, np.random.default_rng(0))


def _chase_axis_heading(pursuer_start, evader_start) -> tuple[float, float]:
    d = np.asarray(evader_start, dtype=float) - np.asarray(pursuer_start, dtype=float)
    n = float(np.linalg.norm(d))
    if n < 1e-12:
        return 0.0, math.pi / 2.0
    return math.atan2(d[1], d[0]), math.acos(max(-1.0, min(1.0, d[2] / n)))


def initial_states(scenario: Scenario, config: TrainConfig) -> tuple[AgentState, AgentState]:
    """Starting states for both agents.

    Unless the scenario pins headings explicitly, both agents start aligned
    with the chase axis: the pursuer faces the evader, the evader faces away
    from the pursuer (the same direction vector, seen from each end).
    """
    auto = _chase_axis_heading(scenario.pursuer_start, scenario.evader_start)
    p_alpha, p_theta = scenario.pursuer_heading or auto
    e_alpha, e_theta = scenario.evader_heading or auto
    pursuer = AgentState(
        position=tuple(map(float, scenario.pursuer_start)),
        alpha=p_alpha,
        theta=p_theta,
        speed=config.pursuer_speed,
    )
    evader = AgentState(
        position=tuple(map(float, scenario.evader_start)),
        alpha=e_alpha,
        theta=e_theta,
        speed=config.evader_speed,
    )
    return pursuer, evader


# --- INI config files -------------------------------------------------------

def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_obstacle_rows(text: str) -> tuple[tuple[float, float, float, float], ...]:
    rows = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        rows.append(_parse_floats(chunk))
        if len(rows[-1]) != 4:
            raise ValueError(f"obstacle row needs 'x y z radius', got {chunk!r}")
    return tuple(rows)


# The INI layout: section -> (the dataclass its keys set, the keys).  A key is
# its field's name, except [arena] ``extents``, which sets ``arena_extents``.
# Defaults come from the dataclasses, casts from the fields' declared types.
INI_SECTIONS = {
    "config": (None, ("schema",)),
    "train": (TrainConfig, ("episodes", "max_plays", "seed", "freeze", "log_steps")),
    "arena": (
        TrainConfig,
        ("extents", "dt", "capture_distance", "max_time", "sensing_range"),
    ),
    "agents": (TrainConfig, ("pursuer_speed", "evader_speed", "cone_constraint")),
    "learner": (LearnerConfig, ("alpha_actor", "alpha_critic", "gamma", "sigma", "mfs_per_input")),
    "reward": (RewardConfig, tuple(f.name for f in fields(RewardConfig))),
    "scenario": (Scenario, tuple(f.name for f in fields(Scenario))),
}
# Keyed by annotation text: the config modules postpone annotation evaluation.
_CASTS = {
    "bool": _parse_bool,
    "int": int,
    "float": float,
    "str": str,
    "tuple[float, float, float]": _parse_floats,
    "tuple[float, float] | None": _parse_floats,
    "tuple[tuple[float, float, float, float], ...] | None": _parse_obstacle_rows,
}


def load_config(path) -> tuple[TrainConfig, Scenario | None]:
    """Read an INI config file; returns the run config and an optional scenario.

    Only a ``[scenario]`` section produces a scenario; otherwise the caller
    picks one of the built-ins.  Unknown keys raise so typos do not silently
    fall back to defaults.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        parser.read_file(fh)

    schema = parser.get("config", "schema", fallback=CONFIG_SCHEMA)
    if schema != CONFIG_SCHEMA:
        raise ValueError(f"unsupported config schema {schema!r} (expected {CONFIG_SCHEMA})")

    values = {cls: {} for cls, _ in INI_SECTIONS.values()}
    for section in parser.sections():
        if section not in INI_SECTIONS:
            raise ValueError(f"unknown config section [{section}] in {path}")
        cls, keys = INI_SECTIONS[section]
        types = {f.name: f.type for f in fields(cls)} if cls else {"schema": "str"}  # [config]
        for key, text in parser.items(section):
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in section [{section}] of {path}")
            name = "arena_extents" if key == "extents" else key
            values[cls][name] = _CASTS[types[name]](text)

    learner, reward = LearnerConfig(**values[LearnerConfig]), RewardConfig(**values[RewardConfig])
    config = TrainConfig(**values[TrainConfig], learner=learner, reward=reward)
    if not parser.has_section("scenario"):
        return config, None
    if not {"pursuer_start", "evader_start"} <= values[Scenario].keys():
        raise ValueError("[scenario] needs pursuer_start and evader_start")
    return config, Scenario(**values[Scenario])


def _tuples(value):
    """JSON lists back to the dataclasses' tuples, inside nested dicts too."""
    if isinstance(value, dict):
        return {key: _tuples(item) for key, item in value.items()}
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _numbers(value, count: int | None = None) -> bool:
    """True for a tuple of real numbers, of ``count`` of them when given."""
    return (
        isinstance(value, tuple)
        and (count is None or len(value) == count)
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    )


def _obstacle_rows(value) -> bool:
    """None, or rows of 4 numbers (x y z radius), as in INI files."""
    return value is None or (isinstance(value, tuple) and all(_numbers(row, 4) for row in value))


# What a JSON value must be to fill a field, keyed by annotation text like
# _CASTS.  Start, heading and extent counts are left to check_scenario and Arena.
_JSON_CHECKS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: _numbers((v,)),
    "str": lambda v: isinstance(v, str),
    "tuple[float, float]": lambda v: _numbers(v, 2),  # the learner's input domains
    "tuple[float, float, float]": _numbers,
    "tuple[float, float] | None": lambda v: v is None or _numbers(v),
    "tuple[tuple[float, float, float, float], ...] | None": _obstacle_rows,
}
_NESTED = {"LearnerConfig": LearnerConfig, "RewardConfig": RewardConfig}


def _from_dict(cls, data):
    """``cls(**data)``, naming an unknown or missing key or a value of the wrong type.

    Fields holding a nested config dataclass are built from their own dicts.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(data.keys() - types.keys())
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key {', '.join(map(repr, unknown))}")
    missing = [
        f.name
        for f in fields(cls)
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"missing {cls.__name__} key {', '.join(map(repr, missing))}")
    values = {}
    for name, value in data.items():
        if types[name] in _NESTED:
            value = _from_dict(_NESTED[types[name]], value)
        elif not _JSON_CHECKS[types[name]](value):
            raise ValueError(f"{cls.__name__} key {name!r} must be {types[name]}, got {value!r}")
        values[name] = value
    return cls(**values)


def scenario_from_dict(data: dict) -> Scenario:
    """Inverse of :meth:`Scenario.to_dict`; missing optional keys take the defaults."""
    return _from_dict(Scenario, _tuples(data))


def train_config_from_dict(data: dict) -> TrainConfig:
    """Inverse of :meth:`TrainConfig.to_dict`; missing keys take the defaults."""
    return _from_dict(TrainConfig, _tuples(data))
