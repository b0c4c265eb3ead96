"""Episode records and their CSV/JSON exports.

An :class:`EpisodeLog` always carries the terminal summary (outcome, final
separation, path lengths, compliance fractions); per-step records are kept
only when requested, since long training runs would otherwise hold millions
of rows.  JSON export round-trips losslessly; CSV export writes one
trajectory file, one reward/TD time-series file, and a summary, which is the
log without its records as :func:`export_json` writes it.

The two dataclasses declare the layout once: the summary columns follow
EpisodeLog's per-role fields, the series columns are StepRecord fields, and
every step column holds ``steps`` values.  Exports only read a log: they
serialise its fields and records as they are, without copying them first.
An episode JSON file holds one line per top-level key, and stores the step
records by column: one line per StepRecord field, holding that field's value
at each step (see :func:`export_json`).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

from ._fields import _KINDS, build, check_fields, load_json
from .reward import ROLES

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

EPISODE_SCHEMA = "peg3d.episode.v2"
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
    # Per-role values, keyed "pursuer" and "evader", in summary-column order.
    reward_total: dict[str, float]
    reward_mean: dict[str, float]
    path_length: dict[str, float]
    min_clearance: dict[str, float]
    collision_steps: dict[str, int]
    cone_fraction: dict[str, float]
    td_abs_mean: dict[str, float | None]
    entropy_mean: dict[str, float]
    records: list[StepRecord] | None = None
    schema: str = EPISODE_SCHEMA

    @classmethod
    def from_dict(cls, data: dict) -> "EpisodeLog":
        """The log decoded JSON ``data`` holds; ``ValueError`` names the first bad key or value.

        ``data["records"]`` is None or a dict of step columns, as
        :func:`export_json` writes it.  Unknown and missing keys and columns
        are named, and so is a column that is not a list or does not hold
        ``steps`` values, and the first value, of the log or of a column (as
        ``records[3].pursuer_pos``), of the wrong kind.
        """
        log = build(cls, data)
        check_fields(log)
        if log.records is not None:
            log.records = _from_columns(log.records, log.steps)
        return log


_STEP_NAMES = tuple(f.name for f in fields(StepRecord))
_step_values = attrgetter(*_STEP_NAMES)  # a record's values in field order
# The list fields' lengths, which their shared annotation cannot say.
_LIST_LENGTHS = {
    **dict.fromkeys(("pursuer_pos", "evader_pos"), 3),
    **dict.fromkeys(("pursuer_u", "pursuer_u_exec", "evader_u", "evader_u_exec"), 2),
}


def _value_check(f):
    """(test, kind) for one value of StepRecord field ``f``, as ``_from_columns`` uses them."""
    test, kind, _ = _KINDS[f.type]
    n = _LIST_LENGTHS.get(f.name)
    if n is None:
        return test, kind
    return (lambda v: test(v) and len(v) == n), f"a list of {n} floats"


_VALUE_CHECKS = tuple(map(_value_check, fields(StepRecord)))


def _from_columns(columns: dict, steps: int) -> list[StepRecord]:
    """``steps`` :class:`StepRecord` objects; ``ValueError`` names the first bad column or value.

    Each column is checked once, in field order: it is a list of ``steps``
    values, and each of its values passes its field's kind test.
    """
    # build names unknown and missing columns, as StepRecord keys.
    columns = vars(build(StepRecord, columns)).values()
    for name, (test, kind), column in zip(_STEP_NAMES, _VALUE_CHECKS, columns):
        if not isinstance(column, list):
            raise ValueError(f"records.{name} must be a list, got {column!r}")
        if len(column) != steps:
            raise ValueError(f"records.{name} must hold {steps} values (steps), got {len(column)}")
        if not all(map(test, column)):
            step = next(i for i, value in enumerate(column) if not test(value))
            raise ValueError(f"records[{step}].{name} must be {kind}, got {column[step]!r}")
    return list(map(StepRecord, *columns))


# EpisodeLog's per-role fields in column order; each is a pursuer_ and an evader_ column.
_ROLE_FIELDS = tuple(f.name for f in fields(EpisodeLog) if f.type.startswith("dict["))


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
        for role in ROLES:
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


def export_json(log: EpisodeLog, path):
    """Write ``log`` with each top-level key on one line and each step column on one line.

    The records are transposed once into a column per StepRecord field; every
    column and every other value goes through one ``json.dumps`` call without
    ``indent``, which runs the C encoder.  Float tokens are those of
    ``json.dump``; :meth:`EpisodeLog.from_dict` reads the file back.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        sep = "{\n"
        for f in fields(log):
            value = getattr(log, f.name)
            fh.write(f'{sep}"{f.name}": ')
            sep = ",\n"
            if f.name != "records" or value is None:
                fh.write(json.dumps(value))
                continue
            columns = zip(*map(_step_values, value)) if value else [()] * len(_STEP_NAMES)
            lead = "{\n"
            for name, column in zip(_STEP_NAMES, columns):
                fh.write(f'{lead}"{name}": {json.dumps(column)}')
                lead = ",\n"
            fh.write("\n}")
        fh.write("\n}\n")


def load_episode(path) -> EpisodeLog:
    """The episode or run log in file ``path``.

    ``ValueError`` as :func:`peg3d._fields.load_json` and :meth:`EpisodeLog.from_dict` raise it.
    """
    return EpisodeLog.from_dict(load_json(path, EPISODE_SCHEMA, "episode"))


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
    """Rows in ``_SERIES_FIELDS`` order, the two cone flags (the last fields) as ints."""
    for values in map(_series_values, log.records):
        yield values[:-2] + (int(values[-2]), int(values[-1]))


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
_series_values = attrgetter(*_SERIES_FIELDS)


def export_csv(log: EpisodeLog, out_dir, stem: str = "episode") -> list[Path]:
    """Write ``<stem>_trajectory.csv``, ``<stem>_series.csv``, ``<stem>_summary.json``."""
    if log.records is None:
        raise ValueError("export_csv needs a log with step records")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trajectory = out_dir / f"{stem}_trajectory.csv"
    series = out_dir / f"{stem}_series.csv"
    summary = out_dir / f"{stem}_summary.json"
    write_rows_csv(trajectory, _TRAJECTORY_FIELDS, _trajectory_rows(log), TRAJECTORY_SCHEMA)
    write_rows_csv(series, _SERIES_FIELDS, _series_rows(log), SERIES_SCHEMA)
    export_json(replace(log, records=None), summary)
    return [trajectory, series, summary]
