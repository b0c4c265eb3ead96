"""Self-play training and evaluation loops, checkpoints, and run manifests.

One episode advances both agents simultaneously: each turn both act from the
same state snapshot, both move, and both receive their temporal-difference
updates from that shared transition.  A training run is fully determined by
(seed, scenario, config): obstacle layouts and exploration noise come from
two child streams of the master seed, and all exports format floats with
``repr`` so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__

# perfbench/ times and counts the layers by rebinding the module-level names
# imported here and the RuleBase and FuzzyActorCritic methods, so the episode
# loop calls them through this module and the instances, never via local aliases.
from .env import (
    CAPTURED,
    RUNNING,
    TIMEOUT,
    StepCommand,
    check_termination,
    cone_limited_command,
    nearest_obstacle,
    step_agent,
)
from .fuzzy import RuleBase, build_default_partitions, firing_entropy
from .geometry import pursuit_cone_halfangle
from .learner import FuzzyActorCritic, extract_inputs
from .logs import EpisodeLog, StepRecord, export_json, summary_row, write_rows_csv
from .reward import EVADER, PURSUER, total_reward
from .scenarios import (
    Scenario,
    TrainConfig,
    build_arena,
    check_scenario,
    initial_states,
    realize_obstacles,
    scenario_from_dict,
    train_config_from_dict,
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

CHECKPOINT_SCHEMA = "peg3d.checkpoint.v2"
MANIFEST_SCHEMA = "peg3d.manifest.v1"
METRICS_SCHEMA = "peg3d.metrics.v1"
EPISODES_CSV_SCHEMA = "peg3d.episodes.v1"
RUNS_CSV_SCHEMA = "peg3d.runs.v1"

_ROLES = (PURSUER, EVADER)


class CheckpointLayoutError(ValueError):
    """Checkpoint weights do not match the rule-base layout its config defines."""


def build_rulebase(config: TrainConfig) -> RuleBase:
    return build_default_partitions(
        distance_domain=config.learner.distance_domain,
        angle_domain=config.learner.angle_domain,
        n_mfs=config.learner.mfs_per_input,
    )


def build_learners(config: TrainConfig, n_rules: int) -> dict[str, FuzzyActorCritic]:
    return {role: FuzzyActorCritic(n_rules, config.learner) for role in _ROLES}


def run_episode(
    scenario: Scenario,
    config: TrainConfig,
    obstacles,
    rulebase: RuleBase,
    learners: dict[str, FuzzyActorCritic],
    rng: np.random.Generator | None,
    record_steps: bool = False,
    seed: int | None = None,
    episode: int | None = None,
) -> EpisodeLog:
    """Play one episode among ``obstacles``; an ``rng`` means training, with updates in place.

    Each iteration: both agents act on the current state, both move, the
    shared transition is scored, and (when training) both critics and actors
    update from it before the next iteration.  An episode ends on capture,
    on the arena time budget, or when the play budget ``config.max_plays``
    runs out (logged as a timeout).
    """
    arena = build_arena(config, obstacles)
    pursuer, evader = initial_states(scenario, config)
    reward_cfg, max_plays, freeze = config.reward, config.max_plays, config.freeze
    cone_constraint, train = config.cone_constraint, rng is not None
    p_state, e_state = pursuer, evader
    v_p, v_e = p_state.speed, e_state.speed
    halfangle = pursuit_cone_halfangle(v_p, v_e) if 0.0 < v_e < v_p else None
    half_pi = math.pi / 2.0

    near_p = nearest_obstacle(p_state.position, arena)
    near_e = nearest_obstacle(e_state.position, arena)
    feats_p = extract_inputs(p_state, e_state, arena, nearest=near_p)
    feats_e = extract_inputs(e_state, p_state, arena, nearest=near_e)
    phi_p = rulebase.fire(feats_p)
    phi_e = rulebase.fire(feats_e)

    path = {PURSUER: 0.0, EVADER: 0.0}
    min_clear = {PURSUER: near_p[1], EVADER: near_e[1]}
    collisions = {PURSUER: 0, EVADER: 0}
    cone_hits = {PURSUER: 0, EVADER: 0}
    reward_sum = {PURSUER: 0.0, EVADER: 0.0}
    td_abs_sum = {PURSUER: 0.0, EVADER: 0.0}
    td_count = {PURSUER: 0, EVADER: 0}
    entropy_sum = {PURSUER: 0.0, EVADER: 0.0}
    records: list[StepRecord] | None = [] if record_steps else None

    steps = 0
    elapsed = 0.0
    d_now = float(feats_p[0])
    outcome = check_termination(p_state, e_state, arena, elapsed)

    while outcome == RUNNING and steps < max_plays:
        p_rng = rng if (train and freeze != PURSUER) else None
        e_rng = rng if (train and freeze != EVADER) else None
        u_p, x_p = learners[PURSUER].act(phi_p, p_rng)
        u_e, x_e = learners[EVADER].act(phi_e, e_rng)
        # The executed actions continue as plain floats: scalar math on them
        # is cheaper than on numpy scalars, and the states stay plain floats.
        x_p, x_e = x_p.tolist(), x_e.tolist()
        if cone_constraint:
            px, py, pz = p_state.position
            qx, qy, qz = e_state.position
            los = (qx - px, qy - py, qz - pz)  # P -> E; also the evader's away direction
            if halfangle is not None:
                x_p = cone_limited_command(p_state, x_p[0], x_p[1], los, halfangle)
            x_e = cone_limited_command(e_state, x_e[0], x_e[1], los, half_pi)

        prev_p, prev_e = p_state, e_state
        p_state = step_agent(p_state, StepCommand(x_p[0], x_p[1]), arena.dt, arena)
        e_state = step_agent(e_state, StepCommand(x_e[0], x_e[1]), arena.dt, arena)
        steps += 1
        elapsed = steps * arena.dt
        outcome = check_termination(p_state, e_state, arena, elapsed)
        if outcome == RUNNING and steps >= max_plays:
            outcome = TIMEOUT
        terminal = outcome != RUNNING
        captured = outcome == CAPTURED

        near_p = nearest_obstacle(p_state.position, arena)
        near_e = nearest_obstacle(e_state.position, arena)
        feats_p = extract_inputs(p_state, e_state, arena, nearest=near_p)
        feats_e = extract_inputs(e_state, p_state, arena, nearest=near_e)

        d_prev, d_next = d_now, float(feats_p[0])
        # Obstacle-distance change is measured against the obstacle that is
        # nearest after the move.
        p_obs, p_clear = near_p
        e_obs, e_clear = near_e
        p_clear_prev = (
            p_obs.surface_distance(prev_p.position) if p_obs is not None else arena.sensing_range
        )
        e_clear_prev = (
            e_obs.surface_distance(prev_e.position) if e_obs is not None else arena.sensing_range
        )
        r_p = total_reward(p_clear_prev, p_clear, d_prev, d_next, captured, PURSUER, reward_cfg)
        r_e = total_reward(e_clear_prev, e_clear, d_prev, d_next, captured, EVADER, reward_cfg)

        phi_p_next = rulebase.fire(feats_p) if not terminal else None
        phi_e_next = rulebase.fire(feats_e) if not terminal else None

        td_p = td_e = None
        if train:
            if freeze != PURSUER:
                td_p = learners[PURSUER].td_error(phi_p, phi_p_next, r_p, terminal)
                learners[PURSUER].update_critic(phi_p, td_p)
                learners[PURSUER].update_actor(phi_p, u_p, x_p, td_p)
                td_abs_sum[PURSUER] += abs(td_p)
                td_count[PURSUER] += 1
            if freeze != EVADER:
                td_e = learners[EVADER].td_error(phi_e, phi_e_next, r_e, terminal)
                learners[EVADER].update_critic(phi_e, td_e)
                learners[EVADER].update_actor(phi_e, u_e, x_e, td_e)
                td_abs_sum[EVADER] += abs(td_e)
                td_count[EVADER] += 1

        reward_sum[PURSUER] += r_p
        reward_sum[EVADER] += r_e
        path[PURSUER] += math.dist(p_state.position, prev_p.position)
        path[EVADER] += math.dist(e_state.position, prev_e.position)
        min_clear[PURSUER] = min(min_clear[PURSUER], p_clear)
        min_clear[EVADER] = min(min_clear[EVADER], e_clear)
        if p_clear < 0.0:
            collisions[PURSUER] += 1
        if e_clear < 0.0:
            collisions[EVADER] += 1
        p_cone = halfangle is not None and feats_p[1] <= halfangle
        e_cone = feats_e[1] >= half_pi
        cone_hits[PURSUER] += p_cone
        cone_hits[EVADER] += e_cone
        ent_p = firing_entropy(phi_p)
        ent_e = firing_entropy(phi_e)
        entropy_sum[PURSUER] += ent_p
        entropy_sum[EVADER] += ent_e

        if records is not None:
            records.append(
                StepRecord(
                    time=elapsed,
                    pursuer_pos=list(p_state.position),
                    pursuer_alpha=p_state.alpha,
                    pursuer_theta=p_state.theta,
                    evader_pos=list(e_state.position),
                    evader_alpha=e_state.alpha,
                    evader_theta=e_state.theta,
                    pursuer_u=u_p.tolist(),
                    pursuer_u_exec=list(x_p),
                    evader_u=u_e.tolist(),
                    evader_u_exec=list(x_e),
                    pursuer_reward=r_p,
                    evader_reward=r_e,
                    pursuer_td=td_p,
                    evader_td=td_e,
                    pursuer_entropy=ent_p,
                    evader_entropy=ent_e,
                    pursuer_cone=bool(p_cone),
                    evader_cone=bool(e_cone),
                    distance=d_next,
                    pursuer_clearance=p_clear,
                    evader_clearance=e_clear,
                )
            )

        d_now = d_next
        if not terminal:
            phi_p, phi_e = phi_p_next, phi_e_next

    def _per_step(total):
        return {role: (total[role] / steps if steps else 0.0) for role in _ROLES}

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
        pursuer_start=list(pursuer.position),
        evader_start=list(evader.position),
        obstacles=[[*obs.center, obs.radius] for obs in arena.obstacles],
        path_length=dict(path),
        min_clearance=dict(min_clear),
        collision_steps=dict(collisions),
        cone_fraction=_per_step(cone_hits),
        reward_total=dict(reward_sum),
        reward_mean=_per_step(reward_sum),
        td_abs_mean={
            role: (td_abs_sum[role] / td_count[role] if td_count[role] else None)
            for role in _ROLES
        },
        entropy_mean=_per_step(entropy_sum),
        records=records,
    )


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
    When ``out_dir`` is given, writes ``manifest.json``, ``episodes.csv``,
    ``checkpoint.json`` and (depending on ``config.log_steps``) full episode
    logs.  ``progress`` is an optional ``f(episode_index, EpisodeLog)``
    callback.
    """
    check_scenario(scenario, config)
    rulebase = build_rulebase(config)
    learners = build_learners(config, rulebase.n_rules)
    obstacle_seq, noise_seq = np.random.SeedSequence(config.seed).spawn(2)
    obstacle_rng = np.random.default_rng(obstacle_seq)
    noise_rng = np.random.default_rng(noise_seq)

    out = Path(out_dir) if out_dir is not None else None
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
            scenario, config, obstacles, rulebase, learners, noise_rng,
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
            out / "episodes.csv", list(summaries[0].keys()), summaries, EPISODES_CSV_SCHEMA
        )
        if final_log is not None:
            export_json(final_log, out / "episode_final.json")
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
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
    """Assess fixed policies over repeated runs with exploration noise off.

    Each run redraws the scenario's random obstacle layout from its own child
    seed (explicit layouts are identical across runs).  Returns the metrics
    table and the per-run rows; never mutates the learners.  When ``out_dir``
    is given, writes ``metrics.json`` and ``runs.csv`` after the last run; with
    ``record_steps`` each run's log goes to ``runs/run_NNN.json`` as soon as
    that run ends, so only one run's records are held at a time.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    check_scenario(scenario, config)
    if seed is None:
        seed = config.seed + 1
    children = np.random.SeedSequence(seed).spawn(runs)

    out = Path(out_dir) if out_dir is not None else None
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
        if out is not None and record_steps:
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
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "metrics.json", "w") as fh:
            json.dump(metrics, fh, indent=1)
            fh.write("\n")
        write_rows_csv(out / "runs.csv", list(rows[0].keys()), rows, RUNS_CSV_SCHEMA)
    return metrics, rows


def make_checkpoint(
    learners: dict[str, FuzzyActorCritic], scenario: Scenario, config: TrainConfig
) -> dict:
    """Scenario, config and weights; the rule base and learner settings follow from config."""
    return {
        "schema": CHECKPOINT_SCHEMA,
        "version": __version__,
        "scenario": scenario.to_dict(),
        "config": config.to_dict(),
        "agents": {role: learners[role].state_dict() for role in _ROLES},
    }


def save_checkpoint(checkpoint: dict, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(checkpoint, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path_or_dict):
    """Rebuild (learners, rulebase, scenario, config) from a checkpoint.

    The rule base and learners come from the stored config, then take the
    stored weights.  Raises :class:`CheckpointLayoutError` when the weights
    do not match the rule-base layout that config defines.
    """
    if isinstance(path_or_dict, dict):
        data = path_or_dict
    else:
        with open(path_or_dict) as fh:
            data = json.load(fh)
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported checkpoint schema {schema!r} (expected {CHECKPOINT_SCHEMA})")
    scenario = scenario_from_dict(_lookup(data, "scenario"))
    config = train_config_from_dict(_lookup(data, "config"))
    rulebase = build_rulebase(config)
    learners = build_learners(config, rulebase.n_rules)
    for role in _ROLES:
        weights = {part: _lookup(data, f"agents.{role}.{part}") for part in ("actor", "critic")}
        try:
            learners[role].load_state_dict(weights)
        except ValueError as exc:
            raise CheckpointLayoutError(f"{role}: {exc}") from exc
    return learners, rulebase, scenario, config


def _lookup(data, path: str):
    """``data[a][b]...`` for the dotted ``path``; ``ValueError`` names the first absent key."""
    keys = path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"checkpoint has no {'.'.join(keys[: i + 1])!r}")
        data = data[key]
    return data
