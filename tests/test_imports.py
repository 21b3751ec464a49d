"""Importing the package and running the CLI load no scipy code;
the package modules use only each other's public names and import nothing unused."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gaussimag
from gaussimag.gaussian import GaussianChannel, to_document

#: The directory holding the package under test, for the child's sys.path.
PACKAGE_ROOT = str(Path(gaussimag.__file__).resolve().parent.parent)


def scipy_modules_after(tmp_path, body: str) -> list[str]:
    """The scipy modules in ``sys.modules`` after ``body`` runs in a fresh interpreter."""
    script = textwrap.dedent(body) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy."))))
    """)
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_scipy(tmp_path):
    assert scipy_modules_after(tmp_path, "import gaussimag, gaussimag.cli") == []


def test_measure_is_loads_no_scipy(tmp_path):
    doc = tmp_path / "amp.json"
    channel = GaussianChannel.amplifying(1, tau=2.0, d=np.array([0.5, 1.5]))
    doc.write_text(json.dumps(to_document(channel)))
    body = f"""
        from gaussimag import cli
        assert cli.main(["--json", "measure", {str(doc)!r}, "--which", "is",
                         "--restarts", "2", "--iterations", "5"]) == 0
    """
    assert scipy_modules_after(tmp_path, body) == []


@pytest.mark.parametrize("regime, theta", [("high", "100"), ("low", "10")])
def test_qbm_loads_no_scipy(tmp_path, regime, theta):
    body = f"""
        from gaussimag import cli
        assert cli.main(["qbm", "--regime", {regime!r}, "--alpha", "0.03", "--x", "0.5",
                         "--theta", {theta!r}, "--horizon", "1", "--out", "t.csv"]) == 0
    """
    assert scipy_modules_after(tmp_path, body) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def import_findings(path: Path) -> list[str]:
    """Private names a module imports or reads from another module, and the
    names it imports but never uses."""
    tree = ast.parse(path.read_text())
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: imports {node.module}.{alias.name}"
                      for alias in node.names if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported and _private(node.attr)):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name != "__init__.py":  # the package's imports are its exports
        found += [f"line {line}: {name} is imported but unused"
                  for name, line in imported.items() if name not in used]
    return found


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(gaussimag.__file__).parent.glob("*.py"))
)
def test_modules_use_public_names_and_no_unused_imports(module):
    assert import_findings(Path(gaussimag.__file__).parent / module) == []
