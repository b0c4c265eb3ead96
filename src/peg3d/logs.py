"""Episode records and their CSV/JSON exports.

An :class:`EpisodeLog` always carries the terminal summary (outcome, final
separation, path lengths, compliance fractions); per-step records are kept
only when requested, since long training runs would otherwise hold millions
of rows.  JSON export round-trips losslessly; CSV export writes one
trajectory file, one reward/TD time-series file, and a JSON summary.

Exports only read a log: they serialise its fields and records as they are,
without copying them first, and stream the JSON to the file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = [
    "EPISODE_SCHEMA",
    "TRAJECTORY_SCHEMA",
    "SERIES_SCHEMA",
    "StepRecord",
    "EpisodeLog",
    "summary_row",
    "export_json",
    "load_episode",
    "export_csv",
    "export_episode",
]

EPISODE_SCHEMA = "peg3d.episode.v1"
TRAJECTORY_SCHEMA = "peg3d.trajectory.v1"
SERIES_SCHEMA = "peg3d.series.v1"


@dataclass
class StepRecord:
    """One simulation step, snapshotted after both agents moved."""

    time: float
    pursuer_pos: list[float]
    pursuer_alpha: float
    pursuer_theta: float
    evader_pos: list[float]
    evader_alpha: float
    evader_theta: float
    pursuer_u: list[float]
    pursuer_u_exec: list[float]
    evader_u: list[float]
    evader_u_exec: list[float]
    pursuer_reward: float
    evader_reward: float
    pursuer_td: float | None
    evader_td: float | None
    pursuer_entropy: float
    evader_entropy: float
    pursuer_cone: bool
    evader_cone: bool
    distance: float
    pursuer_clearance: float
    evader_clearance: float


@dataclass
class EpisodeLog:
    """Terminal summary of one episode, plus optional per-step records."""

    scenario: str
    seed: int | None
    episode: int | None
    dt: float
    outcome: str
    steps: int
    elapsed: float
    final_distance: float
    capture_time: float | None
    pursuer_start: list[float]
    evader_start: list[float]
    obstacles: list[list[float]]  # rows of [x, y, z, radius]
    path_length: dict[str, float]
    min_clearance: dict[str, float]
    collision_steps: dict[str, int]
    cone_fraction: dict[str, float]
    reward_total: dict[str, float]
    reward_mean: dict[str, float]
    td_abs_mean: dict[str, float | None]
    entropy_mean: dict[str, float]
    records: list[StepRecord] | None = None
    schema: str = EPISODE_SCHEMA

    def to_dict(self) -> dict:
        """Plain-dict form in field order, records as dicts, for serialisation.

        Equal to ``dataclasses.asdict(self)`` but shallow: the nested lists
        and dicts are the log's own objects, not copies, so mutating the
        result mutates the log.
        """
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.records is not None:
            data["records"] = [dict(vars(rec)) for rec in self.records]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EpisodeLog":
        data = dict(data)
        records = data.pop("records", None)
        log = cls(**data, records=None)
        if records is not None:
            log.records = [StepRecord(**row) for row in records]
        return log


# EpisodeLog's per-role fields in column order; each is a pursuer_ and an evader_ column.
_ROLE_FIELDS = (
    "reward_total",
    "reward_mean",
    "path_length",
    "min_clearance",
    "collision_steps",
    "cone_fraction",
    "td_abs_mean",
    "entropy_mean",
)


def summary_row(log: EpisodeLog) -> dict:
    """Flat per-episode row for summary CSV files; key order is the column order."""
    row = {
        "episode": log.episode,
        "outcome": log.outcome,
        "steps": log.steps,
        "elapsed": log.elapsed,
        "final_distance": log.final_distance,
        "capture_time": log.capture_time,
    }
    for name in _ROLE_FIELDS:
        per_role = getattr(log, name)
        for role in ("pursuer", "evader"):
            row[f"{role}_{name}"] = per_role[role]
    return row


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(path, fieldnames, rows, schema: str):
    """CSV with a leading ``# schema=...`` comment line and repr-exact floats."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def export_json(log: EpisodeLog, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(log.to_dict(), fh, indent=1)
        fh.write("\n")


def load_episode(path) -> EpisodeLog:
    with open(path) as fh:
        data = json.load(fh)
    schema = data.get("schema")
    if schema != EPISODE_SCHEMA:
        raise ValueError(f"unsupported episode schema {schema!r} (expected {EPISODE_SCHEMA})")
    return EpisodeLog.from_dict(data)


def _trajectory_rows(log: EpisodeLog):
    if log.records:
        for rec in log.records:
            yield {
                "time": rec.time,
                "pursuer_x": rec.pursuer_pos[0],
                "pursuer_y": rec.pursuer_pos[1],
                "pursuer_z": rec.pursuer_pos[2],
                "evader_x": rec.evader_pos[0],
                "evader_y": rec.evader_pos[1],
                "evader_z": rec.evader_pos[2],
                "distance": rec.distance,
            }
    else:
        # Zero recorded steps (for example an immediate capture): emit the
        # terminal state so the file is still well-formed.
        yield {
            "time": log.elapsed,
            "pursuer_x": log.pursuer_start[0],
            "pursuer_y": log.pursuer_start[1],
            "pursuer_z": log.pursuer_start[2],
            "evader_x": log.evader_start[0],
            "evader_y": log.evader_start[1],
            "evader_z": log.evader_start[2],
            "distance": log.final_distance,
        }


def _series_rows(log: EpisodeLog):
    for rec in log.records or []:
        yield {
            "time": rec.time,
            "pursuer_reward": rec.pursuer_reward,
            "evader_reward": rec.evader_reward,
            "pursuer_td": rec.pursuer_td,
            "evader_td": rec.evader_td,
            "pursuer_entropy": rec.pursuer_entropy,
            "evader_entropy": rec.evader_entropy,
            "pursuer_cone": rec.pursuer_cone,
            "evader_cone": rec.evader_cone,
        }


_TRAJECTORY_FIELDS = (
    "time",
    "pursuer_x",
    "pursuer_y",
    "pursuer_z",
    "evader_x",
    "evader_y",
    "evader_z",
    "distance",
)
_SERIES_FIELDS = (
    "time",
    "pursuer_reward",
    "evader_reward",
    "pursuer_td",
    "evader_td",
    "pursuer_entropy",
    "evader_entropy",
    "pursuer_cone",
    "evader_cone",
)


def export_csv(log: EpisodeLog, out_dir, stem: str = "episode") -> list[Path]:
    """Write ``<stem>_trajectory.csv``, ``<stem>_series.csv``, ``<stem>_summary.json``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trajectory = out_dir / f"{stem}_trajectory.csv"
    series = out_dir / f"{stem}_series.csv"
    summary = out_dir / f"{stem}_summary.json"
    write_rows_csv(trajectory, _TRAJECTORY_FIELDS, _trajectory_rows(log), TRAJECTORY_SCHEMA)
    write_rows_csv(series, _SERIES_FIELDS, _series_rows(log), SERIES_SCHEMA)
    summary_data = {f.name: getattr(log, f.name) for f in fields(log) if f.name != "records"}
    with open(summary, "w") as fh:
        json.dump(summary_data, fh, indent=1)
        fh.write("\n")
    return [trajectory, series, summary]


def export_episode(log: EpisodeLog, fmt: str, out_dir, stem: str = "episode") -> list[Path]:
    """Dispatch on export format; returns the written paths."""
    out_dir = Path(out_dir)
    if fmt == "json":
        path = out_dir / f"{stem}.json"
        export_json(log, path)
        return [path]
    if fmt == "csv":
        return export_csv(log, out_dir, stem=stem)
    raise ValueError(f"unknown export format {fmt!r} (use csv or json)")
