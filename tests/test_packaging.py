"""Packaging: ``pip install -e .`` gives the project its name and the
``autocheck`` console script that docs/quickstart.md promises.

Checked offline through setuptools' own metadata commands (no build
isolation, no download): ``setup.py --name`` reads ``pyproject.toml``,
and ``egg_info`` writes the entry points an install would register.
"""

from __future__ import annotations

import configparser
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytest.importorskip("setuptools")


def _setup(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "setup.py", *args], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=False)


def test_setup_reads_name_and_version_from_pyproject():
    from repro import __version__

    done = _setup("--name", "--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["autocheck-repro", __version__]


def test_egg_info_registers_the_autocheck_script(tmp_path):
    done = _setup("-q", "egg_info", "--egg-base", str(tmp_path))
    assert done.returncode == 0, done.stderr
    (info,) = [name for name in os.listdir(tmp_path)
               if name.endswith(".egg-info")]
    entry_points = configparser.ConfigParser()
    entry_points.read(tmp_path / info / "entry_points.txt")
    assert entry_points["console_scripts"]["autocheck"] == "repro.cli:main"
    # numpy stays optional: nothing is required at run time
    assert not (tmp_path / info / "requires.txt").exists()
