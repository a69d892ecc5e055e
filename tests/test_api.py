import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssnl

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_every_exported_name_resolves():
    for name in ssnl.__all__:
        assert hasattr(ssnl, name), name


def test_demo_imports_from_the_package_are_exported():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for demo in demos:
        tree = ast.parse(demo.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ssnl":
                for alias in node.names:
                    assert alias.name in ssnl.__all__, (demo.name, alias.name)


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
