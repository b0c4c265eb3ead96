"""Check that this checkout writes byte-identical outputs to another commit.

Run from anywhere inside the repository::

    python3 tools/same_outputs.py HEAD~1

It exports ``<ref>`` with ``git archive`` into a temporary directory, then
runs one fixed set of ``peg3d`` commands against each tree's ``src/``: this
checkout's working tree and the export.  The set covers ``train`` on the four
built-in scenarios with ``--log-steps all``, both ``--freeze`` roles, a
``--config`` file with ``[agents] cone_constraint = false``, a config file
that sets every section's keys (explicit obstacles, both headings, 3
membership functions per input) and ``evaluate`` from the checkpoint it
trains, a scenario file with random obstacles for ``train`` and its
``[scenario]`` section alone for ``evaluate --scenario``, ``evaluate
--save-logs`` and ``replay --export csv`` and ``json`` of one of its run
logs, and ``replay --export csv`` of a training
episode log, whose TD errors are floats (an evaluation run's are all None).
Every command runs in its tree's output directory with relative
paths, and its standard output is kept there as ``stdout/<name>.txt``.  Then
``diff -r`` compares the two output directories.  When they differ, it prints
the name of every differing file, then the first 20,000 characters of the
line diff.

Exit status: 0 when the outputs are identical, 1 when they differ, 2 when the
export or a command fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RANDOM_SCENARIO = """\
[scenario]
name = random
pursuer_start = 28 4 1
evader_start = 8 25 6
obstacle_count = 4
obstacle_radius = 1.5
obstacle_margin = 2.5
"""

# Written into each output directory before the commands run.
INI_FILES = {
    "no_cone.ini": "[agents]\ncone_constraint = false\n",
    "full.ini": """\
[config]
schema = peg3d.config.v1

[train]
episodes = 6
max_plays = 300
seed = 5
freeze = none
log_steps = all

[arena]
extents = 30 30 15
dt = 0.2
capture_distance = 1.5
sensing_range = 20

[agents]
pursuer_speed = 1.2
evader_speed = 0.9
cone_constraint = true

[learner]
alpha_actor = 0.002
alpha_critic = 0.04
gamma = 0.9
sigma = 0.2
mfs_per_input = 3

[reward]
repulsion_coeff = 8
attraction_coeff = 4
success_coeff = 25
repulsion_weight = 4
attraction_weight = 12

[scenario]
name = full
pursuer_start = 4 25 2
evader_start = 6 6 3
obstacles = 10 10 5 1.5 ; 20 18 7 2
pursuer_heading = -1.2 1.4
evader_heading = 0.5 1.7
""",
    "random.ini": RANDOM_SCENARIO + "\n[agents]\ncone_constraint = false\n",
    # evaluate refuses a scenario file with run settings: they are the checkpoint's.
    "random_scenario.ini": RANDOM_SCENARIO,
}


def commands() -> list[tuple[str, list[str]]]:
    """(name, peg3d arguments) of every command, in order; later ones read earlier outputs."""
    train = ["train", "--seed", "3", "--episodes", "8", "--log-steps", "all", "--quiet"]
    runs = [(f"train-s{n}", [*train, "--scenario", str(n)]) for n in (1, 2, 3, 4)]
    runs += [(f"train-freeze-{role}", [*train, "--scenario", "1", "--freeze", role])
             for role in ("pursuer", "evader")]  # fmt: skip
    runs.append(("train-no-cone", [*train, "--scenario", "2", "--config", "no_cone.ini"]))
    runs.append(("train-full", ["train", "--scenario", "full.ini", "--config", "full.ini",
                                "--quiet"]))  # fmt: skip
    runs.append(("train-random", [*train, "--scenario", "random.ini"]))
    runs = [(name, [*args, "--out", name]) for name, args in runs]
    runs.append(
        ("evaluate", ["evaluate", "--checkpoint", "train-s1/checkpoint.json", "--runs", "3",
                      "--save-logs", "--out", "evaluate"])
    )  # fmt: skip
    runs.append(("evaluate-full", ["evaluate", "--checkpoint", "train-full/checkpoint.json",
                                   "--runs", "2", "--out", "evaluate-full"]))  # fmt: skip
    runs.append(
        ("evaluate-random", ["evaluate", "--checkpoint", "train-s1/checkpoint.json", "--runs", "3",
                             "--scenario", "random_scenario.ini", "--out", "evaluate-random"])
    )  # fmt: skip
    for kind in ("csv", "json"):
        log = "evaluate/runs/run_000.json"
        runs.append((f"replay-{kind}", ["replay", "--log", log, "--export", kind,
                                         "--out", f"replay-{kind}"]))  # fmt: skip
    runs.append(("replay-train-csv", ["replay", "--log", "train-s1/episodes/episode_0007.json",
                                      "--export", "csv", "--out", "replay-train-csv"]))  # fmt: skip
    return runs


def export(ref: str, dest: Path) -> None:
    """Write the files of ``ref`` into ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_all(tree: Path, out: Path) -> None:
    """Run every command with ``tree``'s sources, inside ``out``."""
    (out / "stdout").mkdir(parents=True)
    for name, text in INI_FILES.items():
        (out / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for name, args in commands():
        proc = subprocess.run(
            [sys.executable, "-m", "peg3d.cli", *args],
            cwd=out, env=env, capture_output=True, text=True,
        )  # fmt: skip
        if proc.returncode != 0:
            command = " ".join(args)
            raise RuntimeError(f"{tree}: peg3d {command} exited {proc.returncode}:\n{proc.stderr}")
        (out / "stdout" / f"{name}.txt").write_text(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git commit to compare against, such as HEAD~1")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        other = tmp / "tree"
        other.mkdir()
        try:
            export(args.ref, other)
            run_all(other, tmp / "ref")
            run_all(ROOT, tmp / "here")
        except (subprocess.CalledProcessError, RuntimeError) as exc:
            print(f"same_outputs: {exc}", file=sys.stderr)
            return 2
        diff = subprocess.run(
            ["diff", "-r", "ref", "here"], cwd=tmp, capture_output=True, text=True
        )
        if diff.returncode > 1:
            print(f"same_outputs: diff failed: {diff.stderr}", file=sys.stderr)
            return 2
        if diff.returncode == 1:
            brief = subprocess.run(
                ["diff", "-rq", "ref", "here"], cwd=tmp, capture_output=True, text=True
            )
            sys.stdout.write(brief.stdout + diff.stdout[:20_000])
            print(f"same_outputs: outputs differ from {args.ref}", file=sys.stderr)
            return 1
        files = sum(len(names) for _, _, names in os.walk(tmp / "here"))
        print(f"same_outputs: {len(commands())} commands, {files} files identical to {args.ref}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
