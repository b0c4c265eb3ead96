"""Check that this checkout writes byte-identical outputs to another commit.

Run from anywhere inside the repository::

    python3 tools/same_outputs.py HEAD~1

It exports ``<ref>`` with ``git archive`` into a temporary directory, then
runs one fixed set of ``peg3d`` commands against each tree's ``src/``: this
checkout's working tree and the export.  The set covers ``train`` on the four
built-in scenarios with ``--log-steps all``, both ``--freeze`` roles, a
``--config`` file with ``[agents] cone_constraint = false``, ``evaluate
--save-logs`` and ``replay --export csv`` and ``json``.  Every command runs in
its tree's output directory with relative paths, and its standard output is
kept there as ``stdout/<name>.txt``.  Then ``diff -r`` compares the two output
directories.

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

NO_CONE_INI = "[agents]\ncone_constraint = false\n"


def commands() -> list[tuple[str, list[str]]]:
    """(name, peg3d arguments) of every command, in order; later ones read earlier outputs."""
    train = ["train", "--seed", "3", "--episodes", "8", "--log-steps", "all", "--quiet"]
    runs = [(f"train-s{n}", [*train, "--scenario", str(n)]) for n in (1, 2, 3, 4)]
    runs += [(f"train-freeze-{role}", [*train, "--scenario", "1", "--freeze", role])
             for role in ("pursuer", "evader")]  # fmt: skip
    runs.append(("train-no-cone", [*train, "--scenario", "2", "--config", "no_cone.ini"]))
    runs = [(name, [*args, "--out", name]) for name, args in runs]
    runs.append(
        ("evaluate", ["evaluate", "--checkpoint", "train-s1/checkpoint.json", "--runs", "3",
                      "--save-logs", "--out", "evaluate"])
    )  # fmt: skip
    for kind in ("csv", "json"):
        log = "evaluate/runs/run_000.json"
        runs.append((f"replay-{kind}", ["replay", "--log", log, "--export", kind,
                                         "--out", f"replay-{kind}"]))  # fmt: skip
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
    (out / "no_cone.ini").write_text(NO_CONE_INI)
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
            sys.stdout.write(diff.stdout[:20_000])
            print(f"same_outputs: outputs differ from {args.ref}", file=sys.stderr)
            return 1
        files = sum(len(names) for _, _, names in os.walk(tmp / "here"))
        print(f"same_outputs: {len(commands())} commands, {files} files identical to {args.ref}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
