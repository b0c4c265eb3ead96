"""Run the benchmark once and append its record to ``BENCH_<workload>.json``.

Run from anywhere inside the repository::

    python3 tools/bench_record.py --workload train-s1 --seed 71
    python3 tools/bench_record.py --workload train-s1 --seed 71 --ref HEAD~1
    python3 tools/bench_record.py --workload train-s1 --seed 71 --ref HEAD~1 --pairs 5

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

With ``--pairs N`` it runs N pairs of this checkout and ``--ref`` on the one
seed, the checkout first in even pairs and the ref first in odd ones, and
appends all 2N records.  Then it prints, for each end-to-end metric of
``BENCHMARK.json``, both sides' median and quartiles and the checkout's wins
out of N (ties count for neither), and flags a checkout whose median is worse
than the ref's by more than that metric's ``bound``, a fraction of the ref's
median.  It exits 1 when a run fails, a metric is flagged, or the checkout
fails a larger share of its operations than the ref.
"""

from __future__ import annotations

import argparse
import json
import statistics
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


def append(workload: str, record: dict) -> None:
    path = ROOT / f"BENCH_{workload}.json"
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")
    metrics = {name: round(m["value"], 3) for name, m in record["result"]["metrics"].items()}
    label = record["commit"] + (" (dirty)" if record["dirty"] else "")
    seed, digest = record["info"]["seed"], record["info"]["unit"].get("digest")
    print(f"{path.name}: {label} seed {seed} {metrics} digest {digest}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(spec: dict, pairs: list[tuple[dict, dict]]) -> bool:
    """Print each end-to-end metric's (ref, checkout) spread and wins; True when one is flagged."""
    flagged = False
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        ref, new = ([side["metrics"][name]["value"] for side in sides] for sides in zip(*pairs))
        wins = sum(sign * (b - a) > 0.0 for a, b in zip(ref, new))
        (rq1, rmed, rq3), (nq1, nmed, nq3) = quartiles(ref), quartiles(new)
        change = (nmed - rmed) / rmed
        worse = -sign * change
        print(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"ref {rmed:.6g} [{rq1:.6g}, {rq3:.6g}], checkout {nmed:.6g} [{nq1:.6g}, {nq3:.6g}], "
            f"checkout wins {wins}/{len(pairs)}, median {change:+.1%}"
        )
        if worse > metric["bound"]:
            flagged = True
            print(f"  FLAGGED: {worse:.1%} worse than the ref, beyond the bound {metric['bound']}")
    failed = [sum(side["failed"] for side in sides) for sides in zip(*pairs)]
    attempted = [sum(side["attempted"] for side in sides) for sides in zip(*pairs)]
    print(f"failed: ref {failed[0]}/{attempted[0]}, checkout {failed[1]}/{attempted[1]}")
    return flagged or failed[1] * attempted[0] > failed[0] * attempted[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ref", default=None, help="measure this commit instead of the checkout")
    parser.add_argument("--pairs", type=int, default=None, help="run N pairs of checkout and --ref")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs is not None and (args.ref is None or args.pairs < 1):
        parser.error("--pairs needs --ref and N >= 1")

    def run(tree: Path, commit: str, dirty: bool) -> dict:
        info, result = bench(tree, args.workload, args.seed, spec["run_seconds"])
        append(args.workload, {"commit": commit, "dirty": dirty, "info": info, "result": result})
        return result

    try:
        with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
            status = git("status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_*")
            checkout = ref = (ROOT, git("rev-parse", "HEAD"), bool(status))
            if args.ref is not None:
                commit = git("rev-parse", "--verify", f"{args.ref}^{{commit}}")
                archive = subprocess.run(
                    ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                    capture_output=True, check=True,
                ).stdout  # fmt: skip
                subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
                ref = (Path(tmp), commit, False)
            if args.pairs is None:
                run(*ref)
                return 0
            pairs = []
            for k in range(args.pairs):
                if k % 2 == 0:
                    new = run(*checkout)
                    pairs.append((run(*ref), new))
                else:
                    pairs.append((run(*ref), run(*checkout)))
    except (subprocess.CalledProcessError, RuntimeError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    return 1 if compare(spec, pairs) else 0


if __name__ == "__main__":
    sys.exit(main())
