"""One benchmark process: prepares a fixture, probes set-up time, or runs units.

Started by ``run.py``, never by hand.  Modes:

- ``prepare``: build the workload's fixture (the eval-logged checkpoint).
- ``probe``: time from process spawn to the first episode, then stop.
- ``run``: the same set-up, then untraced units until ``--seconds`` of unit
  time are measured.  Each unit is cut into segments (see :class:`Segments`)
  and ``steps_per_s`` comes from the fastest repeat of every segment
  (:class:`BestSegments`).
- ``trace``: pairs of one untraced and one traced unit until ``--seconds``
  of unit time are measured.

The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SetupReached(Exception):
    """Raised by the probe at the first episode to stop the process there."""


def mark_first_episode(training, on_first):
    """Call ``on_first`` when the first episode starts; then step out of the way."""
    original = training.run_episode

    def first(*args, **kwargs):
        training.run_episode = original
        on_first()
        return original(*args, **kwargs)

    training.run_episode = first


class Segments:
    """Clock marks that cut one unit into short segments of identical work.

    A mark falls at each ``cli.main`` call, each episode start, each JSON or
    CSV export of an episode log and every ``STEP_MARK``-th ``step_agent``
    call (two calls per environment step), so a segment lasts about a
    millisecond.  Every unit of one (workload, seed) does the same work in
    the same order, so the k-th segment of each unit is the same piece of
    work and the times of its repeats compare directly.
    The wrappers only count and read the clock; like a tracer they are
    installed for one unit and restored after it.
    """

    STEP_MARK = 10

    def __init__(self):
        self.marks: list[float] = []  # time.monotonic(), one clock for every process
        self.first_episode: float | None = None
        self._saved = []

    def install(self):
        from peg3d import cli, logs, training

        for owner, attr, wrap in (
            (cli, "main", self._mark_each),
            (training, "export_json", self._mark_each),
            (logs, "export_csv", self._mark_each),
            (training, "run_episode", self._mark_episode),
            (training, "step_agent", self._mark_every),
        ):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        self.marks.append(time.monotonic())

    def _mark_each(self, original):
        def marked(*args, **kwargs):
            self.marks.append(time.monotonic())
            return original(*args, **kwargs)

        return marked

    def _mark_episode(self, original):
        def marked(*args, **kwargs):
            self.marks.append(time.monotonic())
            if self.first_episode is None:
                self.first_episode = self.marks[-1]
            return original(*args, **kwargs)

        return marked

    def _mark_every(self, original):
        calls = itertools.count(1)

        def marked(*args, **kwargs):
            if next(calls) % self.STEP_MARK == 0:
                self.marks.append(time.monotonic())
            return original(*args, **kwargs)

        return marked

    def restore(self) -> bool:
        self.marks.append(time.monotonic())
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._saved)
        self._saved.clear()
        return restored

    def durations(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


class BestSegments:
    """The fastest repeat of each segment over all units so far.

    The shared host switches between fast and slow phases, some lasting
    tens of milliseconds and some minutes, so a unit's total wall time
    mostly measures which phases it met.  A segment lasts about a
    millisecond, so its fastest repeat is the time of that work in a fast
    phase, and their sum is the time of one unit on the fast host.  Only the
    running minimum is kept, so memory does not grow with the run.
    """

    def __init__(self):
        self.best: list[float] | None = None

    def add(self, durations: list[float]) -> bool:
        """Fold in one unit; False when its segments do not line up with the first."""
        if self.best is None:
            self.best = durations
        elif len(durations) != len(self.best):
            return False
        else:
            self.best = list(map(min, self.best, durations))
        return True

    def unit_seconds(self) -> float:
        return sum(self.best)


def run_unit(workload, unit_dir: Path, tracer=None):
    """Run and inspect one unit; returns (wall seconds, UnitResult).

    ``tracer`` is a :class:`tracing.Tracer` or :class:`Segments`, installed
    for the timed part only.
    """
    unit_dir.mkdir(parents=True)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        handle = workload.run(unit_dir)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None and not tracer.restore():
            raise RuntimeError("a traced function was not restored")
    result = workload.inspect(unit_dir, handle)
    shutil.rmtree(unit_dir)
    return wall, result


class Units:
    """Units run so far, checked against the first successful one."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.measured = 0.0
        self.reference = None
        self.problems: list[str] = []

    def run(self, unit_dir: Path, tracer=None):
        """One unit; returns (wall, result) or None when it raised."""
        self.attempted += self.workload.episodes_per_unit
        t0 = time.perf_counter()
        try:
            wall, result = run_unit(self.workload, unit_dir, tracer)
        except Exception:
            traceback.print_exc()
            self.measured += time.perf_counter() - t0
            self.fail(unit_dir.name, ["raised"])
            return None
        self.measured += wall
        problems = list(result.problems)
        if self.reference is None:
            self.reference = result
        elif result.work() != self.reference.work():
            problems.append(f"{result.work()} differs from first unit {self.reference.work()}")
        self.fail(unit_dir.name, problems)
        return wall, result

    def fail(self, unit: str, problems: list[str]):
        """A unit with problems fails all of its episodes."""
        if problems:
            self.failed += self.workload.episodes_per_unit
            self.problems += [f"{unit}: {p}" for p in problems[:5]]

    def summary(self) -> dict:
        ref = self.reference
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "unit": None if ref is None else {
                "steps": ref.steps,
                "train_steps": ref.train_steps,
                "episodes": ref.episodes,
                "captures": ref.captures,
                "bytes_written": ref.bytes_written,
                "digest": ref.digest,
            },
        }  # fmt: skip


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "probe", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned", type=float, default=None, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from peg3d import training  # the first peg3d import counts toward set-up

    from workloads import FULL, SMOKE, WORKLOADS

    if not Path(training.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"peg3d imported from {training.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke else FULL, args.work_dir)
    result: dict = {}

    if args.mode == "prepare":
        workload.prepare()
    elif args.mode == "probe":
        def stop():
            result["setup_s"] = time.monotonic() - args.spawned
            raise SetupReached

        mark_first_episode(training, stop)
        try:
            workload.run(args.work_dir / "probe")
        except SetupReached:
            pass
        else:
            raise RuntimeError("workload finished without starting an episode")
    elif args.mode == "run":
        units = Units(workload)
        walls, steps, best = [], [], BestSegments()
        while units.measured < args.seconds or not walls:
            marker = Segments()
            done = units.run(args.work_dir / f"unit{len(walls)}", marker)
            if done is None:
                break
            walls.append(done[0])
            steps.append(done[1].steps)
            if not best.add(marker.durations()):
                units.fail(f"unit{len(walls) - 1}", ["its segments differ from the first unit's"])
            if "setup_s" not in result and marker.first_episode is not None:
                result["setup_s"] = marker.first_episode - args.spawned
        result.update(units.summary(), unit_walls=walls, unit_steps=steps)
        if best.best is not None:
            result["segments"] = len(best.best)
            result["best_unit_s"] = best.unit_seconds()
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        result.update(trace(workload, args.work_dir, args.seconds))

    args.result.write_text(json.dumps(result))
    return 0


def trace(workload, work_dir: Path, seconds: float) -> dict:
    """Alternate untraced and traced units; per-layer metrics from the traced ones."""
    from tracing import Tracer

    units = Units(workload)
    walls = {False: [], True: []}
    layers = []
    pair = 0
    while units.measured < seconds or not layers:
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            tracer = Tracer() if traced else None
            done = units.run(work_dir / f"unit{pair}{'t' if traced else 'u'}", tracer)
            if done is None:
                return units.summary()
            wall, result = done
            walls[traced].append(wall)
            if traced:
                units.fail(f"traced unit{pair}", tracer.work_problems(result))
                layers.append(tracer.layer_metrics())
        pair += 1

    summary = units.summary()
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if isinstance(values[0], int) or name.endswith("_fraction"):
            if len(set(values)) != 1:  # counts must repeat exactly
                summary["problems"].append(f"{name} varies across traced units: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["logs.bytes_written"] = summary["unit"]["bytes_written"]
    metrics["trace.overhead_fraction"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    )
    summary["layers"] = metrics
    return summary


if __name__ == "__main__":
    sys.exit(main())
