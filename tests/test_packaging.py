"""The package as installed: its metadata, and each sub-package importing on
its own in a fresh interpreter (an import cycle that one import order hides
shows up under another)."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
SUBPACKAGES = sorted(
    module.name for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)


def test_setup_reports_the_package_name_and_version():
    before = sorted(os.listdir(REPO_ROOT))
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["repro", repro.__version__]
    assert sorted(os.listdir(REPO_ROOT)) == before


def test_every_subpackage_is_found():
    assert {"api", "containment", "engine", "exec", "rewriting"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_imports_on_its_own(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", f"import repro.{package}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
