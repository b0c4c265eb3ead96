"""Smoke test of the benchmark at a tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

For every workload it checks that each metric named in ``BENCHMARK.json`` is
printed with its unit, untraced and traced, that the work counts repeat
exactly across runs of one seed, and that the benchmark refuses to run
without the peg3d sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer values that count work rather than time it.
COUNTS = (
    "fuzzy.fire_calls",
    "fuzzy.active_rule_fraction",
    "learner.update_calls",
    "learner.saturation_fraction",
    "env.cone_override_fraction",
    "training.steps",
    "training.episodes",
    "training.captures",
    "logs.bytes_written",
)


def bench(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )  # fmt: skip


def parsed(workload: str, trace: int):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info)["info"], json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_units_and_counts(workload):
    runs = {trace: [parsed(workload, trace) for _ in range(2)] for trace in (0, 1)}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in SPEC[key]}
        for _, result in runs[trace]:
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert {name: m["unit"] for name, m in result["metrics"].items()} == units
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    # Traced and untraced runs do the same work: same steps, captures and digest.
    work = [info["unit"] for pair in runs.values() for info, _ in pair]
    assert all(unit == work[0] for unit in work)

    layers = [result["metrics"] for _, result in runs[1]]
    for name in COUNTS:
        assert layers[0][name]["value"] == layers[1][name]["value"], name
    assert layers[0]["training.steps"]["value"] == work[0]["steps"]
    assert layers[0]["fuzzy.fire_calls"]["value"] >= 2 * work[0]["steps"]
    updates = layers[0]["learner.update_calls"]["value"]
    assert updates == 2 * work[0]["train_steps"]
    assert (updates == 0) == (workload == "eval-logged")


def test_tracer_restores_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from tracing import Tracer

    tracer = Tracer()
    bindings = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracer._targets()]
    tracer.install()
    assert all(vars(owner)[attr] is not original for owner, attr, original in bindings)
    assert tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in bindings)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("train-s1", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
