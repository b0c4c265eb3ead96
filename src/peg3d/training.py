"""Self-play training and evaluation loops, checkpoints, and run manifests.

One episode advances both agents simultaneously: each turn both act from the
same state snapshot, both move, and both receive their temporal-difference
updates from that shared transition.  A training run is fully determined by
(seed, scenario, config): obstacle layouts and exploration noise come from
two child streams of the master seed, and all exports format floats with
``repr`` so identical runs produce identical bytes.

Exploration noise is one stream per training run: ``train`` wraps the noise
child's Generator in a :func:`~peg3d.learner.noise_stream`, which draws
standard normals in blocks, and hands that one stream to every episode, so a
block's leftover values carry into the next episode.  Each step, each
learning agent takes two values, the pursuer before the evader; a frozen
agent takes none, and ``evaluate`` draws no noise at all.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._fields import build, check_int, check_schema, load_json
from ._version import __version__

# perfbench/ times and counts the layers by rebinding the module-level names
# imported here and the RuleBase and FuzzyActorCritic methods, so the episode
# loop calls them through this module and the instances, never via local aliases.
# Only helpers that are not rebound there (heading_vector, surface_distance and
# the like) may be inlined: an inlined rebound name would drop out of the trace,
# and its per-step call count with it.
from .env import (
    CAPTURED,
    RUNNING,
    check_termination,
    cone_limited_command,
    nearest_obstacle,
    step_agent,
)
from .fuzzy import RuleBase, firing_entropy, uniform_partition
from .geometry import pursuit_cone_halfangle
from .learner import ANGLE_DOMAIN, DISTANCE_DOMAIN, FuzzyActorCritic, extract_inputs, noise_stream
from .logs import EpisodeLog, StepRecord, export_json, summary_row, write_json, write_rows_csv
from .reward import ROLES, total_reward
from .scenarios import (
    Scenario,
    TrainConfig,
    build_arena,
    check_scenario,
    initial_states,
    realize_obstacles,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "MANIFEST_SCHEMA",
    "METRICS_SCHEMA",
    "CheckpointLayoutError",
    "TrainResult",
    "build_learners",
    "build_rulebase",
    "run_episode",
    "train",
    "evaluate",
    "make_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_SCHEMA = "peg3d.checkpoint.v4"
MANIFEST_SCHEMA = "peg3d.manifest.v1"
METRICS_SCHEMA = "peg3d.metrics.v1"
EPISODES_CSV_SCHEMA = "peg3d.episodes.v1"
RUNS_CSV_SCHEMA = "peg3d.runs.v1"

# What train and evaluate write into an output directory.  Each refuses a
# directory that holds one already, where an earlier run's files would go stale.
TRAIN_OUTPUTS = ("manifest.json", "checkpoint.json", "episodes.csv", "episode_final.json",
                 "episodes")  # fmt: skip
EVALUATE_OUTPUTS = ("metrics.json", "runs.csv", "runs")


class CheckpointLayoutError(ValueError):
    """Checkpoint weights are not finite numbers, or do not fit the layout its config defines."""


def build_rulebase(config: TrainConfig) -> RuleBase:
    """Rule grid over the four chase features: [distance, angle, distance, angle]."""
    n_mfs = config.learner.mfs_per_input
    distance = uniform_partition(*DISTANCE_DOMAIN, n_mfs)
    angle = uniform_partition(*ANGLE_DOMAIN, n_mfs)
    return RuleBase([distance, angle, distance, angle])


def build_learners(config: TrainConfig, n_rules: int) -> dict[str, FuzzyActorCritic]:
    return {role: FuzzyActorCritic(n_rules, config.learner) for role in ROLES}


def run_episode(
    scenario: Scenario,
    config: TrainConfig,
    obstacles,
    rulebase: RuleBase,
    learners: dict[str, FuzzyActorCritic],
    noise: Iterator[float] | None,
    record_steps: bool = False,
    seed: int | None = None,
    episode: int | None = None,
) -> EpisodeLog:
    """Play one episode among ``obstacles``; a ``noise`` stream means training, updating in place.

    Each iteration: both agents act on the current state, both move, the
    shared transition is scored, and (when training) both critics and actors
    update from it before the next iteration.  An episode ends on capture,
    or as a timeout after ``config.max_plays`` plays.  ``noise`` is a
    :func:`~peg3d.learner.noise_stream`, which the episode reads on from where
    the last one stopped: each step every learning agent (not the one
    ``config.freeze`` names) takes two values, the pursuer first.  Without a
    stream nothing learns and no noise is added.
    """
    arena = build_arena(config, obstacles)
    starts = initial_states(scenario, config)
    reward_cfg = config.reward
    cone_constraint = config.cone_constraint
    v_p, v_e = starts[0].speed, starts[1].speed
    halfangle = pursuit_cone_halfangle(v_p, v_e) if 0.0 < v_e < v_p else None
    half_pi = math.pi / 2.0

    # Per-role slots, indexed like ROLES and allocated once: every phase of
    # the loop runs the same code for each role in turn.  A role learns when it
    # reads the noise stream.  Its cone limit bounds its heading's offset from
    # the P -> E line: the pursuer's cone (only when it is faster), the evader's
    # away half-space.  Its arc is the range of heading offsets from the line
    # to the opponent that counts as inside its cone (empty without one).
    agents = [learners[role] for role in ROLES]
    noises = [None if config.freeze == role else noise for role in ROLES]
    limits = [halfangle, half_pi] if cone_constraint else [None, None]
    no_arc = (math.inf, math.inf)
    arcs = [(0.0, halfangle) if halfangle is not None else no_arc, (half_pi, math.pi)]
    states, prev = list(starts), list(starts)
    near, feats, phi = [None, None], [None, None], [None, None]
    for i in (0, 1):
        near[i] = nearest_obstacle(states[i].position, arena)
        feats[i] = extract_inputs(states[i], states[1 - i], near[i])
        phi[i] = rulebase.fire(feats[i])
    u, x, r, td, ent, cone = ([None, None] for _ in range(6))  # this step's, for its record

    path, reward_sum, td_abs_sum, entropy_sum = ([0.0, 0.0] for _ in range(4))
    collisions, cone_hits = [0, 0], [0, 0]
    min_clear = [clear for _, clear in near]
    records: list[StepRecord] | None = [] if record_steps else None

    steps = 0
    elapsed = 0.0
    d_now = feats[0][0]
    outcome = check_termination(states[0], states[1], arena, steps)

    while outcome == RUNNING:
        if cone_constraint:
            (px, py, pz), (qx, qy, qz) = states[0].position, states[1].position
            los = (qx - px, qy - py, qz - pz)  # P -> E; also the evader's away direction
        for i in (0, 1):  # the pursuer draws its noise first
            # The executed action is a pair of plain floats: scalar math on them
            # is cheaper than on numpy scalars, and the states stay plain floats.
            u[i], x[i] = agents[i].act(phi[i], noises[i])
            limit = limits[i]
            if limit is not None:
                dalpha, dtheta = x[i]
                x[i] = cone_limited_command(states[i], dalpha, dtheta, los, limit)

        for i in (0, 1):
            prev[i] = state = states[i]
            states[i] = step_agent(state, *x[i], arena.dt, arena)
        steps += 1
        elapsed = steps * arena.dt
        outcome = check_termination(states[0], states[1], arena, steps)
        terminal = outcome != RUNNING
        captured = outcome == CAPTURED

        for i in (0, 1):
            state = states[i]
            near[i] = nearest = nearest_obstacle(state.position, arena)
            feats[i] = extract_inputs(state, states[1 - i], nearest)
        d_prev, d_next = d_now, feats[0][0]

        for i, role in enumerate(ROLES):
            # Obstacle-distance change is measured against the obstacle that is
            # nearest after the move; an open arena's clearance does not change.
            obs, clear = near[i]
            before = prev[i].position
            clear_prev = obs.surface_distance(before) if obs is not None else clear
            r[i] = reward = total_reward(
                clear_prev, clear, d_prev, d_next, captured, role, reward_cfg
            )
            phi_now = phi[i]
            phi_next = rulebase.fire(feats[i]) if not terminal else None
            if noises[i] is not None:
                agent = agents[i]
                td[i] = delta = agent.td_error(phi_now, phi_next, reward, terminal)
                agent.update_critic(phi_now, delta)
                agent.update_actor(phi_now, u[i], x[i], delta)
                td_abs_sum[i] += abs(delta)
            reward_sum[i] += reward
            path[i] += math.dist(states[i].position, before)
            if clear < min_clear[i]:
                min_clear[i] = clear
            if clear < 0.0:
                collisions[i] += 1
            low, high = arcs[i]
            cone[i] = hit = low <= feats[i][1] <= high
            cone_hits[i] += hit
            ent[i] = entropy = firing_entropy(phi_now)
            entropy_sum[i] += entropy
            if not terminal:
                phi[i] = phi_next

        if records is not None:
            p, e = states
            # Positional, in StepRecord's field order: one call binds no keywords.
            records.append(
                StepRecord(
                    elapsed,
                    list(p.position), p.alpha, p.theta,
                    list(e.position), e.alpha, e.theta,
                    u[0].tolist(), list(x[0]), u[1].tolist(), list(x[1]),
                    r[0], r[1], td[0], td[1], ent[0], ent[1], cone[0], cone[1],
                    d_next, near[0][1], near[1][1],
                )  # fmt: skip
            )

        d_now = d_next

    per_step = (steps, steps)
    updates = [steps if n is not None else 0 for n in noises]  # a learning role updates every step
    return EpisodeLog(
        scenario=scenario.name,
        seed=seed,
        episode=episode,
        dt=arena.dt,
        outcome=outcome,
        steps=steps,
        elapsed=elapsed,
        final_distance=d_now,
        capture_time=elapsed if outcome == CAPTURED else None,
        pursuer_start=list(starts[0].position),
        evader_start=list(starts[1].position),
        obstacles=[[*obs.center, obs.radius] for obs in arena.obstacles],
        path_length=_by_role(path),
        min_clearance=_by_role(min_clear),
        collision_steps=_by_role(collisions),
        cone_fraction=_by_role(cone_hits, per_step),
        reward_total=_by_role(reward_sum),
        reward_mean=_by_role(reward_sum, per_step),
        td_abs_mean=_by_role(td_abs_sum, updates, empty=None),
        entropy_mean=_by_role(entropy_sum, per_step),
        records=records,
    )


def _by_role(values, counts=None, empty=0.0) -> dict:
    """``values`` (in ``ROLES`` order) keyed by role; divided by ``counts`` when given.

    A zero count gives ``empty``.
    """
    if counts is None:
        return dict(zip(ROLES, values))
    return {role: (v / n if n else empty) for role, v, n in zip(ROLES, values, counts)}


@dataclass
class TrainResult:
    """In-memory outcome of a training run; files are written only when asked."""

    manifest: dict
    learners: dict[str, FuzzyActorCritic]
    rulebase: RuleBase
    summaries: list[dict]
    final_log: EpisodeLog | None
    checkpoint: dict


def train(scenario: Scenario, config: TrainConfig, out_dir=None, progress=None) -> TrainResult:
    """Run the full training protocol for one scenario.

    Episode loop: draw an obstacle layout, reset both agents, play one
    episode with exploration noise and simultaneous actor/critic updates.
    The noise is one stream for the whole run, drawn in blocks from the
    second child of ``config.seed``: each step takes two values for each
    learning agent, the pursuer's first (see :func:`run_episode`).
    When ``out_dir`` is given, writes ``manifest.json``, ``episodes.csv``,
    ``checkpoint.json`` and (depending on ``config.log_steps``) full episode
    logs.  ``progress`` is an optional ``f(episode_index, EpisodeLog)``
    callback.  An ``out_dir`` that already holds any of ``TRAIN_OUTPUTS``
    raises ``FileExistsError`` before the first episode.
    """
    check_scenario(scenario, config)
    out = _unused_out_dir(out_dir, TRAIN_OUTPUTS)
    rulebase = build_rulebase(config)
    learners = build_learners(config, rulebase.n_rules)
    obstacle_seq, noise_seq = np.random.SeedSequence(config.seed).spawn(2)
    obstacle_rng = np.random.default_rng(obstacle_seq)
    noise = noise_stream(np.random.default_rng(noise_seq))

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    summaries: list[dict] = []
    final_log: EpisodeLog | None = None
    for ep in range(config.episodes):
        record = config.log_steps == "all" or (
            config.log_steps == "final" and ep == config.episodes - 1
        )
        obstacles = realize_obstacles(scenario, config, obstacle_rng)
        log = run_episode(
            scenario, config, obstacles, rulebase, learners, noise,
            record_steps=record, seed=config.seed, episode=ep,
        )
        summaries.append(summary_row(log))
        if record:
            final_log = log
            if out is not None and config.log_steps == "all":
                export_json(log, out / "episodes" / f"episode_{ep:04d}.json")
        if progress is not None:
            progress(ep, log)

    checkpoint = make_checkpoint(learners, scenario, config)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "version": __version__,
        "seed": config.seed,
        "scenario": scenario.to_dict(),
        "config": config.to_dict(),
        "checkpoint": "checkpoint.json" if out is not None else None,
        "episodes": summaries,
    }
    if out is not None:
        save_checkpoint(checkpoint, out / "checkpoint.json")
        write_rows_csv(
            out / "episodes.csv",
            summaries[0].keys(),
            [row.values() for row in summaries],
            EPISODES_CSV_SCHEMA,
        )
        if final_log is not None:
            export_json(final_log, out / "episode_final.json")
        write_json(manifest, out / "manifest.json")
    return TrainResult(manifest, learners, rulebase, summaries, final_log, checkpoint)


def evaluate(
    learners: dict[str, FuzzyActorCritic],
    rulebase: RuleBase,
    scenario: Scenario,
    config: TrainConfig,
    runs: int = 20,
    seed: int | None = None,
    out_dir=None,
    record_steps: bool = False,
) -> tuple[dict, list[dict]]:
    """Assess fixed policies over repeated runs with exploration noise off (nothing is drawn).

    Each run redraws the scenario's random obstacle layout from its own child
    seed (explicit layouts are identical across runs).  Returns the metrics
    table and the per-run rows; never mutates the learners.  When ``out_dir``
    is given, writes ``metrics.json`` and ``runs.csv`` after the last run; with
    ``record_steps`` each run's log goes to ``runs/run_NNN.json`` as soon as
    that run ends, so only one run's records are held at a time.  An
    ``out_dir`` that already holds any of ``EVALUATE_OUTPUTS`` raises
    ``FileExistsError``, and ``record_steps`` without one ``ValueError``, before
    the first run.
    """
    check_int("runs", runs, 1)
    if seed is None:
        seed = config.seed + 1
    check_int("seed", seed, 0)
    check_scenario(scenario, config)
    out = _unused_out_dir(out_dir, EVALUATE_OUTPUTS)
    if record_steps and out is None:
        raise ValueError("record_steps needs an out_dir: step records only go to files")
    children = np.random.SeedSequence(seed).spawn(runs)

    rows: list[dict] = []
    for i, child in enumerate(children):
        obstacles = realize_obstacles(scenario, config, np.random.default_rng(child))
        log = run_episode(
            scenario, config, obstacles, rulebase, learners, None,
            record_steps=record_steps, seed=seed, episode=i,
        )
        row = summary_row(log)
        row.pop("episode")
        rows.append({"run": i, **row})
        if record_steps:
            export_json(log, out / "runs" / f"run_{i:03d}.json")

    captured = [row for row in rows if row["outcome"] == CAPTURED]

    def _column(key):
        return [row[key] for row in rows]

    def _stats(values):
        if not values:
            return None, None
        arr = np.asarray(values, dtype=float)
        return float(arr.mean()), float(arr.std())

    ct_mean, ct_std = _stats([row["capture_time"] for row in captured])
    pp_mean, pp_std = _stats(_column("pursuer_path_length"))
    ep_mean, ep_std = _stats(_column("evader_path_length"))
    collisions = np.add(_column("pursuer_collision_steps"), _column("evader_collision_steps"))
    metrics = {
        "schema": METRICS_SCHEMA,
        "scenario": scenario.name,
        "runs": runs,
        "seed": seed,
        "capture_rate": len(captured) / runs,
        "capture_time_mean": ct_mean,
        "capture_time_std": ct_std,
        "pursuer_path_mean": pp_mean,
        "pursuer_path_std": pp_std,
        "evader_path_mean": ep_mean,
        "evader_path_std": ep_std,
        "collision_steps_mean": float(np.mean(collisions)),
        "collision_steps_total": int(np.sum(collisions)),
        "final_distance_mean": float(np.mean(_column("final_distance"))),
        "pursuer_cone_fraction_mean": float(np.mean(_column("pursuer_cone_fraction"))),
        "evader_cone_fraction_mean": float(np.mean(_column("evader_cone_fraction"))),
    }
    if out is not None:
        write_json(metrics, out / "metrics.json")
        write_rows_csv(
            out / "runs.csv", rows[0].keys(), [row.values() for row in rows], RUNS_CSV_SCHEMA
        )
    return metrics, rows


def _unused_out_dir(out_dir, outputs) -> Path | None:
    """``out_dir`` as a Path or None; ``FileExistsError`` names the first of ``outputs`` in it."""
    if out_dir is None:
        return None
    out = Path(out_dir)
    for name in outputs:
        if (out / name).exists():
            raise FileExistsError(f"{out / name} already exists; give each run its own directory")
    return out


def make_checkpoint(
    learners: dict[str, FuzzyActorCritic], scenario: Scenario, config: TrainConfig
) -> dict:
    """Scenario, config and weights; the rule base and learner settings follow from config."""
    return {
        "schema": CHECKPOINT_SCHEMA,
        "version": __version__,
        "scenario": scenario.to_dict(),
        "config": config.to_dict(),
        "agents": {role: learners[role].state_dict() for role in ROLES},
    }


def save_checkpoint(checkpoint: dict, path):
    write_json(checkpoint, path)


def load_checkpoint(path_or_dict):
    """Rebuild (learners, rulebase, scenario, config) from a checkpoint file or its dict.

    ``ValueError`` on a file that :func:`peg3d._fields.load_json` refuses, a
    ``schema`` other than ``peg3d.checkpoint.v4``, or a bad ``scenario`` or
    ``config``.  Each role's weights are checked against the stored config's
    rule count before any learner is built: :class:`CheckpointLayoutError`
    names the role, then gives :meth:`FuzzyActorCritic.checked_weights`'s message.
    """
    if isinstance(path_or_dict, dict):
        data = path_or_dict
        check_schema(data.get("schema"), CHECKPOINT_SCHEMA, "checkpoint")
    else:
        data = load_json(path_or_dict, CHECKPOINT_SCHEMA, "checkpoint")
    scenario = build(Scenario, _lookup(data, "scenario"))
    config = build(TrainConfig, _lookup(data, "config"))
    rulebase = build_rulebase(config)
    weights = {}
    for role in ROLES:
        state = {part: _lookup(data, f"agents.{role}.{part}") for part in ("actor", "critic")}
        try:
            weights[role] = FuzzyActorCritic.checked_weights(state, rulebase.n_rules)
        except ValueError as exc:
            raise CheckpointLayoutError(f"{role}: {exc}") from exc
    learners = build_learners(config, rulebase.n_rules)
    for role in ROLES:
        learners[role].actor, learners[role].critic = weights[role]
    return learners, rulebase, scenario, config


def _lookup(data, path: str):
    """``data[a][b]...`` for the dotted ``path``; ``ValueError`` names the first absent key."""
    keys = path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"checkpoint has no {'.'.join(keys[: i + 1])!r}")
        data = data[key]
    return data
