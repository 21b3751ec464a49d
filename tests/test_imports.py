"""Importing the package root loads neither numpy nor any package module;
importing the package and running the CLI load no scipy code, `qbm`
loads no OpenSSL, and no package module names scipy; the package modules,
the root included, use only each other's public names, import nothing
unused and define no private name that they never use; every public
function of `specfun` is imported by another package module; in the CLI
only `main` names stderr, prints and reads the clock; and `qbm` walks its
grid in one loop and reads the temperature regime only inside `QbmConfig`."""

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


def modules_after(tmp_path, body: str, *names: str) -> list[str]:
    """The modules in ``sys.modules`` after ``body`` runs in a fresh
    interpreter that are one of ``names`` or inside one of them."""
    script = textwrap.dedent(body) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] in {names!r})))
    """)
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_root_imports_nothing(tmp_path):
    assert modules_after(tmp_path, "import gaussimag", "gaussimag", "numpy") == ["gaussimag"]


def test_importing_the_package_loads_no_scipy(tmp_path):
    assert modules_after(tmp_path, "import gaussimag, gaussimag.cli", "scipy") == []


def test_measure_is_loads_no_scipy(tmp_path):
    doc = tmp_path / "amp.json"
    channel = GaussianChannel.amplifying(1, tau=2.0, d=np.array([0.5, 1.5]))
    doc.write_text(json.dumps(to_document(channel)))
    body = f"""
        from gaussimag import cli
        assert cli.main(["--json", "measure", {str(doc)!r}, "--which", "is",
                         "--restarts", "2", "--iterations", "5"]) == 0
    """
    assert modules_after(tmp_path, body, "scipy") == []


def qbm_run(regime: str, theta: str) -> str:
    return f"""
        from gaussimag import cli
        assert cli.main(["qbm", "--regime", {regime!r}, "--alpha", "0.03", "--x", "0.5",
                         "--theta", {theta!r}, "--horizon", "1", "--out", "t.csv"]) == 0
    """


@pytest.mark.parametrize("regime, theta", [("high", "100"), ("low", "10")])
def test_qbm_loads_no_scipy(tmp_path, regime, theta):
    assert modules_after(tmp_path, qbm_run(regime, theta), "scipy") == []


@pytest.mark.parametrize("regime, theta", [("high", "100"), ("low", "10")])
def test_qbm_loads_no_hashlib(tmp_path, regime, theta):
    # only the input digest of validate, measure and check-super needs
    # hashlib, whose _hashlib loads OpenSSL (about 3.5 MB of peak RSS)
    names = ("hashlib", "_hashlib")
    assert modules_after(tmp_path, "import hashlib", *names) == sorted(names)
    assert modules_after(tmp_path, qbm_run(regime, theta), *names) == []


def scipy_findings(source: str) -> list[str]:
    """Where ``source`` imports or names scipy; comments and docstrings do not count."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            texts = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            texts += [t for alias in node.names for t in (alias.name, alias.asname or "")]
        elif isinstance(node, ast.Name):
            texts = [node.id]
        elif isinstance(node, ast.Attribute):
            texts = [node.attr]
        elif isinstance(node, ast.Constant) and id(node) not in docstrings:
            texts = [node.value] if isinstance(node.value, str) else []
        else:
            continue
        found += [f"line {node.lineno}: {text!r}" for text in texts if "scipy" in text]
    return found


def test_scipy_findings_flags_imports_and_names_only():
    source = textwrap.dedent('''
        """A docstring naming scipy."""
        import scipy.integrate
        from scipy import special
        import numpy as scipy
        import importlib  # scipy in a comment


        def f():
            """scipy in a function docstring."""
            return scipy.integrate, importlib.import_module("scipy"), special
    ''')
    assert [f.split(":")[0] for f in scipy_findings(source)] == [
        "line 3", "line 4", "line 5", "line 11", "line 11"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(gaussimag.__file__).parent.glob("*.py"))
)
def test_modules_do_not_name_scipy(module):
    assert scipy_findings((Path(gaussimag.__file__).parent / module).read_text()) == []


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
    found += [f"line {line}: {name} is imported but unused"
              for name, line in imported.items() if name not in used]
    return found


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(gaussimag.__file__).parent.glob("*.py"))
)
def test_modules_use_public_names_and_no_unused_imports(module):
    assert import_findings(Path(gaussimag.__file__).parent / module) == []


def unused_private_findings(source: str) -> list[str]:
    """The module-level private functions, classes and assignments that
    ``source`` never reads, and the private methods of its classes that it
    never reads as an attribute."""
    tree = ast.parse(source)
    defined, methods = {}, []  # name -> line; (class, method, line)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            methods += [(node.name, item.name, item.lineno) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attributes = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name} is never used"
            for name, line in defined.items() if _private(name) and name not in read] + [
        f"line {line}: {cls}.{name} is never used"
        for cls, name, line in methods if _private(name) and name not in attributes]


def test_unused_private_findings_flags_module_level_names_only():
    source = textwrap.dedent('''
        _USED, _UNUSED = 1, 2
        _annotated: int = 3
        __all__ = ["f"]


        def _dead():
            _local = _USED
            return _local


        class _Helper:
            def __init__(self):
                self._value = 1

            def _read(self):
                return self._value

            def _unread(self):
                pass

            def public(self):
                return self._read()


        def f():
            return _Helper
    ''')
    assert unused_private_findings(source) == [
        "line 2: _UNUSED is never used", "line 3: _annotated is never used",
        "line 7: _dead is never used", "line 19: _Helper._unread is never used"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(gaussimag.__file__).parent.glob("*.py"))
)
def test_modules_use_every_private_name_they_define(module):
    source = (Path(gaussimag.__file__).parent / module).read_text()
    assert unused_private_findings(source) == []


def unimported_findings(module: str, sources: dict[str, str]) -> list[str]:
    """The public functions that ``module`` defines at top level and that no
    other module of ``sources`` (module name -> source) imports from it or
    reads as an attribute of it."""
    defined = {node.name: node.lineno for node in ast.parse(sources[module]).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")}
    used = set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)) if name != module else ():
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == module):
                used.add(node.attr)
    return [f"line {line}: {name} is imported by no other module"
            for name, line in defined.items() if name not in used]


def test_unimported_findings_flags_functions_no_other_module_imports():
    sources = {
        "special": textwrap.dedent('''
            def imported():
                pass


            def read():
                pass


            def only_tests_call_it():
                return imported(), read()


            def _private():
                pass
        '''),
        "user": "from .special import imported\nfrom . import special\nspecial.read()\n",
        "other": "from gaussimag.linalg import only_tests_call_it\n",
    }
    assert unimported_findings("special", sources) == [
        "line 10: only_tests_call_it is imported by no other module"]


def test_every_specfun_function_is_imported_by_another_module():
    # a function that only the tests call is not part of the program
    sources = {p.stem: p.read_text() for p in Path(gaussimag.__file__).parent.glob("*.py")}
    assert unimported_findings("specfun", sources) == []


def findings_outside_main(source: str, names: set[str]) -> list[str]:
    """Where ``source`` names one of ``names`` outside its top-level function
    ``main``, in line order."""
    tree = ast.parse(source)
    tree.body = [node for node in tree.body if getattr(node, "name", None) != "main"]
    fields = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}
    found = [node for node in ast.walk(tree)
             if type(node) in fields and getattr(node, fields[type(node)]) in names]
    return [f"line {node.lineno}: names {getattr(node, fields[type(node)])}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def stderr_findings(source: str) -> list[str]:
    """A command reports a failure by raising it, and ``main`` prints it."""
    return findings_outside_main(source, {"stderr"})


def report_findings(source: str) -> list[str]:
    """A command returns its results, and ``main`` times the run, builds the
    report and prints it."""
    return findings_outside_main(source, {"print", "_emit", "perf_counter"})


def test_stderr_findings_flags_every_use_outside_main():
    source = textwrap.dedent('''
        import sys
        from sys import stderr


        def main():
            print("failed", file=sys.stderr)


        def command():
            print("failed", file=sys.stderr)
            stderr.write("failed")
    ''')
    assert stderr_findings(source) == [
        "line 3: names stderr", "line 11: names stderr", "line 12: names stderr"]


def test_only_the_cli_main_names_stderr():
    assert stderr_findings((Path(gaussimag.__file__).parent / "cli.py").read_text()) == []


def test_report_findings_flags_every_use_outside_main():
    source = textwrap.dedent('''
        import time
        from time import perf_counter


        def main():
            start = time.perf_counter()
            print("report", time.perf_counter() - start)


        def command():
            _emit({"results": {}}, True)
            print("report")
            return time.perf_counter()
    ''')
    assert report_findings(source) == [
        "line 3: names perf_counter", "line 12: names _emit", "line 13: names print",
        "line 14: names perf_counter"]


def test_only_the_cli_main_prints_and_times_the_report():
    assert report_findings((Path(gaussimag.__file__).parent / "cli.py").read_text()) == []


def chunk_walk_findings(source: str) -> list[str]:
    """The QBM grid is walked once: exactly one ``for`` loop iterates over
    ``range(..., _CHUNK)``, and no code outside such a loop reads ``_CHUNK``."""
    tree = ast.parse(source)
    walks = [node for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(node.iter, ast.Call)
             and isinstance(node.iter.func, ast.Name) and node.iter.func.id == "range"
             and len(node.iter.args) == 3 and isinstance(node.iter.args[2], ast.Name)
             and node.iter.args[2].id == "_CHUNK"]
    inside = {id(node) for walk in walks for node in ast.walk(walk)}
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
             and node.id == "_CHUNK" and isinstance(node.ctx, ast.Load) and id(node) not in inside]
    found = [(walk.lineno, "another loop over range(..., _CHUNK)") for walk in walks[1:]]
    found += [(node.lineno, "reads _CHUNK outside a loop over range(..., _CHUNK)")
              for node in reads]
    return ([] if walks else ["no loop over range(..., _CHUNK)"]) + [
        f"line {line}: {what}" for line, what in sorted(found)]


def test_chunk_walk_findings_flags_a_second_walk_and_stray_reads():
    source = textwrap.dedent('''
        _CHUNK = 4


        def walk(m):
            for lo in range(0, m, _CHUNK):
                hi = min(lo + _CHUNK, m - 1)


        def second_walk(m):
            for lo in range(0, m, _CHUNK):
                pass
            return [lo for lo in range(0, m, _CHUNK)], range(_CHUNK)
    ''')
    assert chunk_walk_findings(source) == [
        "line 11: another loop over range(..., _CHUNK)",
        "line 13: reads _CHUNK outside a loop over range(..., _CHUNK)",
        "line 13: reads _CHUNK outside a loop over range(..., _CHUNK)"]
    assert chunk_walk_findings("_CHUNK = 4\n") == ["no loop over range(..., _CHUNK)"]


def test_qbm_walks_its_grid_in_one_loop():
    assert chunk_walk_findings((Path(gaussimag.__file__).parent / "qbm.py").read_text()) == []


def regime_findings(source: str) -> list[str]:
    """Where ``source`` reads an attribute ``regime`` outside the body of its
    top-level class ``QbmConfig``, in line order: the regime is chosen once,
    by the table of bath copies that every closed form reads."""
    tree = ast.parse(source)
    inside = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "QbmConfig"
              for node in ast.walk(cls)}
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "regime"
             and isinstance(node.ctx, ast.Load) and id(node) not in inside]
    return [f"line {node.lineno}: reads .regime"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def test_regime_findings_flags_reads_outside_the_config_class():
    source = textwrap.dedent('''
        class QbmConfig:
            regime: str = "high"

            def __post_init__(self):
                if self.regime not in ("high", "low"):
                    raise ValueError(self.regime)

            @property
            def _baths(self):
                return 1 if self.regime == "high" else 2


        def coefficients(cfg):
            """A docstring naming cfg.regime."""
            cfg.regime = "low"  # a store, not a read
            return cfg._baths if cfg.regime == "high" else None


        class Other:
            def steady(self, cfg):
                return cfg.regime
    ''')
    assert regime_findings(source) == ["line 17: reads .regime", "line 22: reads .regime"]


def test_qbm_reads_the_regime_only_inside_its_config():
    assert regime_findings((Path(gaussimag.__file__).parent / "qbm.py").read_text()) == []
