"""Run outputs do not depend on numpy's BLAS kernel or SIMD level.

A dynamic-arch OpenBLAS picks its kernels for the CPU it runs on, and
``OPENBLAS_CORETYPE`` forces one.  numpy picks SIMD loops the same way, and
``NPY_DISABLE_CPU_FEATURES`` turns off every level above its build baseline.
Each setting acts only on the subprocess it is given to, so one host can run
the same ``train`` and ``evaluate`` under several kernels and compare bytes.
"""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import peg3d

# The subprocesses import the peg3d these tests import, whatever their cwd.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(peg3d.__file__))


def _blas_config() -> dict:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        return {}


def _dispatched_features() -> list[str]:
    """numpy's SIMD levels above its build baseline that this CPU has."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(name)
        except ImportError:
            continue
        return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return []


BLAS = _blas_config()
DYNAMIC_OPENBLAS = "openblas" in str(BLAS.get("name", "")).lower() and "DYNAMIC_ARCH" in str(
    BLAS.get("openblas configuration", "")
)

SETTINGS = {
    "default": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
    "simd-baseline": {"NPY_DISABLE_CPU_FEATURES": " ".join(_dispatched_features())},
}


def _peg3d(args, cwd, extra_env):
    env = {**os.environ, **extra_env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    for key in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        if key not in extra_env:
            env.pop(key, None)
    proc = subprocess.run(
        [sys.executable, "-m", "peg3d.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, f"peg3d {' '.join(args)} under {extra_env}:\n{proc.stderr}"


def _outputs(root) -> dict:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.skipif(
    not DYNAMIC_OPENBLAS,
    reason=f"numpy's BLAS is not a dynamic-arch OpenBLAS ({BLAS.get('name', 'unknown')}), "
    "so no other kernel can be forced",
)
def test_outputs_identical_across_blas_kernels_and_simd_levels(tmp_path):
    outputs = {}
    for name, extra_env in SETTINGS.items():
        out = tmp_path / name
        out.mkdir()
        train = ["train", "--scenario", "1", "--seed", "1", "--episodes", "2", "--quiet"]
        _peg3d([*train, "--out", "run"], out, extra_env)
        evaluate = ["evaluate", "--checkpoint", "run/checkpoint.json", "--runs", "2"]
        _peg3d([*evaluate, "--out", "eval"], out, extra_env)
        outputs[name] = _outputs(out)
    reference = outputs["default"]
    assert {"run/checkpoint.json", "run/manifest.json", "eval/metrics.json"} <= set(reference)
    for name, files in outputs.items():
        assert files.keys() == reference.keys(), name
        differing = [path for path in files if files[path] != reference[path]]
        assert differing == [], f"{name} wrote other bytes than the default kernel"
