import ast
from pathlib import Path

import ssnl

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
