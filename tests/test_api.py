import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ssnl

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
PACKAGE = ROOT / "src" / "ssnl"


def test_every_exported_name_resolves():
    for name in ssnl.__all__:
        assert hasattr(ssnl, name), name


def test_every_exported_name_is_used_by_the_readme_or_a_demo():
    # the namespace holds the documented workflow; a name that neither the
    # README nor a demo uses belongs in its submodule
    text = (ROOT / "README.md").read_text(encoding="utf-8") + "".join(
        demo.read_text(encoding="utf-8") for demo in sorted(DEMOS.glob("*.py")))
    unused = [name for name in ssnl.__all__ if not re.search(rf"\b{name}\b", text)]
    assert not unused


def test_every_unexported_definition_is_used_by_the_package():
    # a module-level def or class outside ssnl.__all__ that no other code in
    # the package names is dead, however many tests call it. The one exception,
    # data.extract_window, stays while perfbench's probe builds its windows
    # with it (ROADMAP item 1)
    nodes = [(path.stem, node) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.parse(path.read_text(encoding="utf-8")).body]
    used = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
             if isinstance(n, (ast.Name, ast.Attribute))} for _, node in nodes]
    unused = [f"{module}.{node.name}" for i, (module, node) in enumerate(nodes)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in ssnl.__all__
              and not any(node.name in names for j, names in enumerate(used) if j != i)]
    assert unused == ["data.extract_window"]


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
