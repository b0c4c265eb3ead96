"""Episode records and their CSV/JSON exports.

An :class:`EpisodeLog` always carries the terminal summary (outcome, final
separation, path lengths, compliance fractions); per-step records are kept
only when requested, since long training runs would otherwise hold millions
of rows.  JSON export round-trips losslessly; CSV export writes one
trajectory file, one reward/TD time-series file, and a JSON summary.

Exports only read a log: they serialise its fields and records as they are,
without copying them first, and stream them to the file.  An episode JSON file
holds one line per top-level key and one compact line per step record.
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path

from ._fields import build, check_fields

__all__ = [
    "EPISODE_SCHEMA",
    "TRAJECTORY_SCHEMA",
    "SERIES_SCHEMA",
    "StepRecord",
    "EpisodeLog",
    "summary_row",
    "write_rows_csv",
    "write_json",
    "export_json",
    "load_episode",
    "export_csv",
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

    @classmethod
    def from_dict(cls, data: dict) -> "EpisodeLog":
        """Inverse of ``dataclasses.asdict``; ``ValueError`` names the first bad key or value.

        Unknown and missing keys are named, and so is the first field, of the
        log or of a step record (as ``records[3].pursuer_pos``), that holds a
        value of the wrong type.  A step record adopts its row dict as its
        attributes when the row holds exactly the record's fields in field
        order, as an exported log does.
        """
        log = build(cls, data)
        check_fields(log)
        if log.records is not None:
            log.records = _step_records(log.records)
        return log


_STEP_FIELDS = [f.name for f in fields(StepRecord)]
# A record's list fields, from its attribute dict.
_STEP_LISTS = operator.itemgetter(*(f.name for f in fields(StepRecord) if f.type == "list[float]"))
_REAL_TYPES = frozenset((float, int))


def _step_records(rows) -> list[StepRecord]:
    """A type-checked :class:`StepRecord` per row; ``ValueError`` names the row index and field.

    A row whose values have the types of the last row checked, and whose
    lists hold only floats and ints, passes too: the kind of every other
    field is decided by its value's type.  So a log pays ``check_fields``
    once per change of value types, not once per row.
    """
    records, checked = [], None
    for i, row in enumerate(rows):
        record = _step_record(row)
        attrs = vars(record)
        types = tuple(map(type, attrs.values()))
        if types != checked or not _REAL_TYPES.issuperset(
            map(type, chain.from_iterable(_STEP_LISTS(attrs)))
        ):
            check_fields(record, f"records[{i}].")
            checked = types
        records.append(record)
    return records


def _step_record(row):
    """``StepRecord(**row)``, without the call when ``row`` already is its attribute dict.

    Any other row (reordered keys, a wrong key, not a dict) goes through
    ``build``, which orders the attributes or words the error.
    """
    if type(row) is dict and list(row) == _STEP_FIELDS:
        record = object.__new__(StepRecord)
        record.__dict__ = row
        return record
    return build(StepRecord, row)


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


def write_rows_csv(path, header, rows, schema: str):
    """CSV with a leading ``# schema=...`` comment line; ``rows`` list values in header order.

    ``csv.writer`` writes floats with ``repr`` (exact) and ``None`` as an
    empty field; it would write bools as ``True``/``False``, so pass them as ints.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(data, path):
    """``data`` as JSON indented by one space, with a final newline; makes the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


# Step records per json.dumps call in export_json: few enough that a chunk's
# text stays small, enough to spread the per-call cost of the encoder.
_JSON_CHUNK = 32


def export_json(log: EpisodeLog, path):
    """Write ``log`` with each top-level key on one line and each step record on one line.

    Every value goes through ``json.dumps`` without ``indent``, which runs the C
    encoder.  The records are encoded and written ``_JSON_CHUNK`` (32) at a
    time, so at most one chunk's text is held in memory, never the whole file.
    Keys, key order and float tokens are those of
    ``json.dump(dataclasses.asdict(log), indent=1)``; only the whitespace differs.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        sep = "{\n"
        for f in fields(log):
            value = getattr(log, f.name)
            fh.write(f'{sep}"{f.name}": ')
            sep = ",\n"
            if f.name != "records" or not value:
                fh.write(json.dumps(value))
                continue
            # A step record holds numbers, None, bools and lists of numbers:
            # no nested object and no string, so "}, {" occurs in a chunk's
            # text only between two records, where the line breaks go.  That
            # holds for every record run_episode builds and, since from_dict
            # checks each field's type, for every record of a loaded log.
            lead = "[\n"
            for start in range(0, len(value), _JSON_CHUNK):
                text = json.dumps(list(map(vars, value[start : start + _JSON_CHUNK])))
                fh.write(lead + text[1:-1].replace("}, {", "},\n{"))
                lead = ",\n"
            fh.write("\n]")
        fh.write("\n}\n")


def load_episode(path) -> EpisodeLog:
    with open(path) as fh:
        data = json.load(fh)
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != EPISODE_SCHEMA:
        raise ValueError(f"unsupported episode schema {schema!r} (expected {EPISODE_SCHEMA})")
    return EpisodeLog.from_dict(data)


def _trajectory_rows(log: EpisodeLog):
    """Rows in ``_TRAJECTORY_FIELDS`` order."""
    if not log.records:
        # Zero recorded steps (for example an immediate capture): emit the
        # terminal state so the file is still well-formed.
        yield (log.elapsed, *log.pursuer_start, *log.evader_start, log.final_distance)
        return
    for rec in log.records:
        yield (rec.time, *rec.pursuer_pos, *rec.evader_pos, rec.distance)


def _series_rows(log: EpisodeLog):
    """Rows in ``_SERIES_FIELDS`` order, cone flags as ints."""
    for rec in log.records or ():
        yield (
            rec.time,
            rec.pursuer_reward,
            rec.evader_reward,
            rec.pursuer_td,
            rec.evader_td,
            rec.pursuer_entropy,
            rec.evader_entropy,
            int(rec.pursuer_cone),
            int(rec.evader_cone),
        )


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
    write_json({f.name: getattr(log, f.name) for f in fields(log) if f.name != "records"}, summary)
    return [trajectory, series, summary]
