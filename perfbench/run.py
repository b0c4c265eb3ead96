"""peg3d benchmark: steps/s, set-up time and peak memory, plus a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train-s1 --seed 1 --seconds 30 --trace 0

Workloads are ``train-s1``, ``protocol-grid`` and ``eval-logged`` (see
``perfbench/README.md``).  With ``--trace 0`` the result carries the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` its per-layer
metrics.  The last line of standard output is the result, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine, a reference loop timed before and after the run, and
the work one unit did.

All peg3d work happens in child processes (``worker.py``), one at a time:
a fixture build, a few set-up probes, then one measuring process.  Scratch
files live under ``.perfbench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-s1", "protocol-grid", "eval-logged")
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 6


def machine_record() -> dict:
    """Host facts that explain a run's speed; read-only from /proc."""
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    models = [line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")]
    return {
        "nproc": sum(line.startswith("processor") for line in cpuinfo),
        "cpu_model": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
    }


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop.

    It shows host drift beside the results and never rescales them.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def measure(args, work_dir: Path, deadline: float) -> tuple[dict, dict]:
    """Run the workers one at a time; returns (metric values, record for the info line)."""
    started = itertools.count()

    def worker(mode: str, seconds: float = 0.0) -> dict:
        result = work_dir / f"{mode}{next(started)}.json"
        command = [
            sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--work-dir", str(work_dir), "--result", str(result),
        ]  # fmt: skip
        if args.smoke:
            command.append("--smoke")
        # On Linux time.monotonic() is one clock for every process.
        command += ["--spawned", repr(time.monotonic())]
        subprocess.run(
            command,
            stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        return json.loads(result.read_text())

    worker("prepare")
    if args.trace:
        out = worker("trace", args.seconds)
        values = dict(out.get("layers", {}))
        if values:
            values["failed_fraction"] = out["failed"] / out["attempted"]
        return values, out
    # Probes before and after the measuring process, so that they meet more
    # than one of the host's fast and slow phases.
    probes = 2 if args.smoke else SETUP_PROBES
    setups = [worker("probe")["setup_s"] for _ in range(probes // 2)]
    out = worker("run", args.seconds)
    setups += [worker("probe")["setup_s"] for _ in range(probes - probes // 2)]
    if "setup_s" in out:
        setups.append(out["setup_s"])
    out["setup_s"] = setups
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": out["peak_rss_mb"]}
    if out["unit_walls"]:
        out["total_steps_per_s"] = sum(out["unit_steps"]) / sum(out["unit_walls"])
    if "best_unit_s" in out:
        values["steps_per_s"] = out["unit_steps"][0] / out["best_unit_s"]
    return values, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="unit time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny units, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "peg3d" / "__init__.py").is_file():
        print(f"perfbench: no peg3d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        machine = machine_record()
        ref_before = reference_loop_ms()
        values, out = measure(args, work_dir, deadline)
        ref_after = reference_loop_ms()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}; problems: {out['problems']}", file=sys.stderr)
        return 1
    for problem in out["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "reference_loop_ms": {"before": ref_before, "after": ref_after},
        "unit": out["unit"],
        "units": {
            key: out[key]
            for key in (
                "unit_walls", "unit_steps", "segments", "best_unit_s", "total_steps_per_s",
                "setup_s",
            )
            if key in out
        },
        "failed_fraction": out["failed"] / out["attempted"],
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": out["failed"] == 0 and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
