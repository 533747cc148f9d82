"""The OpenBLAS core that the training-step pins name, and the line that reports it."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conftest
from conftest import openblas_core

TESTS = Path(__file__).parent
ROOT = TESTS.parent


def _python_env(**extra) -> dict:
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(TESTS), *filter(None, [env.get("PYTHONPATH")])])
    return env


def test_openblas_core_names_a_forced_core():
    """``OPENBLAS_CORETYPE`` in the process's environment picks the core that is named."""
    run = subprocess.run(
        [sys.executable, "-c", "from conftest import openblas_core; print(openblas_core())"],
        env=_python_env(OPENBLAS_CORETYPE="Haswell"), capture_output=True, text=True,
        timeout=60, check=True)
    assert run.stdout.strip() == ("unknown" if openblas_core() == "unknown" else "Haswell")


def test_openblas_core_is_unknown_without_the_library(monkeypatch, tmp_path):
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy.libs").mkdir()
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert openblas_core() == "unknown"


@pytest.mark.parametrize("flag", ["-q", "-v"])
def test_pytest_run_reports_numpy_and_the_core(flag):
    """The line shows in the header, and under ``-q``, which hides the header, next to the
    summary."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", flag, "-p", "no:cacheprovider",
         "tests/test_model.py::test_zero_network_gives_zero_logits"],
        cwd=ROOT, env=_python_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    line = f"numpy {np.__version__}, OpenBLAS core {openblas_core()}"
    assert line in run.stdout.splitlines()
    assert conftest.pytest_report_header(None) == line
