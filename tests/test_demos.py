"""Every demo script runs to completion against the source tree, and the
README names only what the package defines."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fempost

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_readme_module_names_resolve():
    modules = {"fempost": fempost}
    for info in pkgutil.iter_modules(fempost.__path__):
        modules[info.name] = importlib.import_module(f"fempost.{info.name}")
    named = re.findall(r"`(\w+)\.(\w+)`", (ROOT / "README.md").read_text())
    checked = [(module, name) for module, name in named if module in modules]
    assert len(checked) >= 15
    stale = [f"{module}.{name}" for module, name in checked if not hasattr(modules[module], name)]
    assert not stale
