"""The benchmark's workloads, each driven through peg3d's public entry points.

A workload is repeated in *units*: one unit is the whole workload at a fixed
size, so every unit of one (workload, seed) does identical work and must
produce identical outputs.  ``run`` is the timed part; ``inspect`` reads the
unit's outputs afterwards, checks them, and digests them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from peg3d import cli, training
from peg3d.scenarios import TrainConfig, builtin_scenarios

ENDINGS = ("captured", "timeout")


@dataclass(frozen=True)
class Size:
    train_episodes: int  # train-s1 episodes per unit
    grid_seeds: int  # protocol-grid seeds per built-in scenario
    grid_train_episodes: int  # protocol-grid training episodes per cell
    grid_eval_runs: int  # protocol-grid noise-free runs per cell
    eval_steps: int  # eval-logged: runs per unit are the fewest that reach this many steps
    fixture_episodes: int  # training episodes behind the eval-logged checkpoint


# A unit lasts 1-3 s here, so a 30 s run repeats it about ten times or more;
# steps_per_s takes the fastest repeat of every millisecond-long segment.
FULL = Size(
    train_episodes=20,
    grid_seeds=1,
    grid_train_episodes=3,
    grid_eval_runs=3,
    eval_steps=4_000,
    fixture_episodes=30,
)
SMOKE = Size(
    train_episodes=2,
    grid_seeds=1,
    grid_train_episodes=1,
    grid_eval_runs=1,
    eval_steps=200,
    fixture_episodes=1,
)


@dataclass
class UnitResult:
    """What one unit did, and whether its outputs passed the checks."""

    steps: int
    train_steps: int
    episodes: int
    captures: int
    bytes_written: int
    digest: str
    problems: list[str] = field(default_factory=list)

    def work(self) -> tuple:
        """The fields every repeat of the unit must reproduce exactly."""
        return (self.steps, self.train_steps, self.episodes, self.captures, self.digest)


def _run_cli(*argv):
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"peg3d {argv[0]} exited with {code}")


def _dir_digest(root: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and the total byte count."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(data)
        size += len(data)
    return digest.hexdigest(), size


def _row_problems(rows) -> list[str]:
    """Every episode must end captured or timed out with finite numbers."""
    problems = []
    for row in rows:
        if row["outcome"] not in ENDINGS:
            problems.append(f"episode ended {row['outcome']!r}")
        for key, value in row.items():
            if key == "outcome" or value in (None, ""):
                continue
            if not math.isfinite(float(value)):
                problems.append(f"non-finite {key} = {value!r}")
    return problems


def _weight_problems(agents: dict) -> list[str]:
    """``agents`` maps role -> {"actor": ..., "critic": ...}."""
    return [
        f"non-finite {role} {part} weights"
        for role, weights in sorted(agents.items())
        for part in ("actor", "critic")
        if not np.isfinite(np.asarray(weights[part], dtype=float)).all()
    ]


def _result(train_rows, eval_rows, problems, digest, bytes_written) -> UnitResult:
    rows = list(train_rows) + list(eval_rows)
    return UnitResult(
        steps=sum(int(row["steps"]) for row in rows),
        train_steps=sum(int(row["steps"]) for row in train_rows),
        episodes=len(rows),
        captures=sum(row["outcome"] == "captured" for row in rows),
        bytes_written=bytes_written,
        digest=digest,
        problems=problems + _row_problems(rows),
    )


class TrainS1:
    """``peg3d train`` on scenario 1 through ``cli.main``: one learning chain."""

    name = "train-s1"

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.seed = seed
        self.episodes_per_unit = size.train_episodes

    def prepare(self):
        pass

    def run(self, unit_dir: Path):
        _run_cli(
            "train", "--scenario", 1, "--seed", self.seed,
            "--episodes", self.episodes_per_unit, "--log-steps", "final",
            "--out", unit_dir, "--quiet",
        )  # fmt: skip

    def inspect(self, unit_dir: Path, handle) -> UnitResult:
        rows = json.loads((unit_dir / "manifest.json").read_text())["episodes"]
        checkpoint = json.loads((unit_dir / "checkpoint.json").read_text())
        digest, size = _dir_digest(unit_dir)
        return _result(rows, [], _weight_problems(checkpoint["agents"]), digest, size)


class ProtocolGrid:
    """A small criterion-7 grid through the Python API: train, then evaluate, per cell.

    Every built-in scenario runs with ``grid_seeds`` seeds derived from the
    workload seed.  No files are written.
    """

    name = "protocol-grid"

    def __init__(self, seed: int, size: Size, work_dir: Path):
        seeds = np.random.SeedSequence(seed).generate_state(size.grid_seeds)
        self.cells = [
            (scenario, TrainConfig(seed=int(cell_seed), episodes=size.grid_train_episodes,
                                   log_steps="none"))
            for _, scenario in sorted(builtin_scenarios().items())
            for cell_seed in seeds
        ]  # fmt: skip
        self.runs = size.grid_eval_runs
        self.episodes_per_unit = len(self.cells) * (size.grid_train_episodes + self.runs)

    def prepare(self):
        pass

    def run(self, unit_dir: Path):
        cells = []
        for scenario, config in self.cells:
            trained = training.train(scenario, config)
            metrics, rows = training.evaluate(
                trained.learners, trained.rulebase, scenario, config, runs=self.runs
            )
            cells.append((trained, metrics, rows))
        return cells

    def inspect(self, unit_dir: Path, cells) -> UnitResult:
        train_rows, eval_rows, problems = [], [], []
        digest = hashlib.sha256()
        for trained, metrics, rows in cells:
            train_rows += trained.summaries
            eval_rows += rows
            problems += _weight_problems(
                {role: learner.state_dict() for role, learner in trained.learners.items()}
            )
            digest.update(json.dumps([trained.summaries, metrics, rows]).encode())
        return _result(train_rows, eval_rows, problems, digest.hexdigest(), 0)


class EvalLogged:
    """``peg3d evaluate --save-logs`` from a checkpoint, then ``peg3d replay --export csv``.

    The checkpoint comes from a short deterministic ``train`` made by
    :meth:`prepare`, before any timing starts.  How fast a policy captures
    depends on the seed, and the stored logs grow with the steps, so
    :meth:`prepare` also fixes the run count: the fewest runs that reach
    ``eval_steps`` steps.  Every unit of a seed then records about the same
    number of steps.
    """

    name = "eval-logged"
    MAX_RUNS = 30

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.seed = seed
        self.fixture_episodes = size.fixture_episodes
        self.eval_steps = size.eval_steps
        self.fixture = work_dir / "fixture"

    @property
    def episodes_per_unit(self) -> int:
        return int((self.fixture / "runs").read_text())

    def prepare(self):
        _run_cli(
            "train", "--scenario", 1, "--seed", self.seed,
            "--episodes", self.fixture_episodes, "--log-steps", "none",
            "--out", self.fixture, "--quiet",
        )  # fmt: skip
        checkpoint = json.loads((self.fixture / "checkpoint.json").read_text())
        problems = _weight_problems(checkpoint["agents"])
        if problems:
            raise RuntimeError(f"fixture checkpoint: {problems}")
        # evaluate() draws run i from child i of one seed, so the first n of
        # these runs are the runs of ``peg3d evaluate --runs n``.
        _, rows = training.evaluate(
            *training.load_checkpoint(checkpoint), runs=self.MAX_RUNS
        )
        steps = np.cumsum([row["steps"] for row in rows])
        runs = min(int(np.searchsorted(steps, self.eval_steps)) + 1, self.MAX_RUNS)
        (self.fixture / "runs").write_text(str(runs))

    def run(self, unit_dir: Path):
        evaluated = unit_dir / "eval"
        _run_cli(
            "evaluate", "--checkpoint", self.fixture / "checkpoint.json",
            "--runs", self.episodes_per_unit, "--save-logs", "--out", evaluated,
        )  # fmt: skip
        for log in sorted((evaluated / "runs").glob("run_*.json")):
            _run_cli("replay", "--log", log, "--export", "csv", "--out", unit_dir / "replay")

    def inspect(self, unit_dir: Path, handle) -> UnitResult:
        with open(unit_dir / "eval" / "runs.csv", newline="") as fh:
            fh.readline()  # "# schema=..." line
            rows = list(csv.DictReader(fh))
        problems = []
        replayed = len(list((unit_dir / "replay").glob("run_*_trajectory.csv")))
        if replayed != len(rows):
            problems.append(f"{replayed} replay exports for {len(rows)} runs")
        digest, size = _dir_digest(unit_dir)
        return _result([], rows, problems, digest, size)


WORKLOADS = {cls.name: cls for cls in (TrainS1, ProtocolGrid, EvalLogged)}
