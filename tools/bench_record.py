"""Run the benchmark once and append its record to ``BENCH_<workload>.json``.

Run from anywhere inside the repository::

    python3 tools/bench_record.py --workload train-s1 --seed 71
    python3 tools/bench_record.py --workload train-s1 --seed 71 --ref HEAD~1

It runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0``,
with ``N`` the ``run_seconds`` of ``BENCHMARK.json``, and appends
``{"commit", "dirty", "info", "result"}`` to the JSON list in
``BENCH_<W>.json`` at the repository root.  ``info`` and ``result`` are the
benchmark's last two output lines as printed.

Without ``--ref`` it measures this checkout: ``commit`` is ``HEAD``'s hash,
and ``dirty`` is true when tracked files other than the ``BENCH_*.json``
records differ from it, so that record belongs to no commit.  With ``--ref``
it exports that commit with ``git archive`` into a temporary directory and
runs the export's own ``perfbench/``, so each side of a comparison is timed
by the benchmark code it was committed with.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def bench(tree: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The benchmark's (info, result) for ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )  # fmt: skip
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited {proc.returncode}:\n{proc.stderr}")
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info)["info"], json.loads(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ref", default=None, help="measure this commit instead of the checkout")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    try:
        if args.ref is None:
            commit = git("rev-parse", "HEAD")
            status = git("status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_*")
            dirty = bool(status)
            info, result = bench(ROOT, args.workload, args.seed, spec["run_seconds"])
        else:
            commit, dirty = git("rev-parse", "--verify", f"{args.ref}^{{commit}}"), False
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                capture_output=True, check=True,
            ).stdout  # fmt: skip
            with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
                subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
                info, result = bench(Path(tmp), args.workload, args.seed, spec["run_seconds"])
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1

    path = ROOT / f"BENCH_{args.workload}.json"
    records = json.loads(path.read_text()) if path.exists() else []
    records.append({"commit": commit, "dirty": dirty, "info": info, "result": result})
    path.write_text(json.dumps(records, indent=1) + "\n")
    metrics = {name: round(m["value"], 3) for name, m in result["metrics"].items()}
    label = commit + (" (dirty)" if dirty else "")
    print(f"{path.name}: {label} seed {args.seed} {metrics} digest {info['unit'].get('digest')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
