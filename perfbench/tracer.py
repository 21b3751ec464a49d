"""Run one gaussimag CLI operation in-process with every public function timed.

    python3 perfbench/tracer.py --src SRC --stats STATS.json --spans SPANS.npz -- ARGV...

The tracer imports `gaussimag.cli` from SRC, then rebinds every module
attribute of the six modules (cli, qbm, measures, gaussian, linalg,
specfun) that holds a public function, plus `__init__` and the public
methods of their classes, to a timing wrapper.  Bindings made by
`from`-imports (such as `qbm.channel_measure_ic`) are module attributes
too, so calls through them are caught.  No file under SRC changes.

Each call records a span (name, start, end, parent) in typed arrays
kept in memory; spans are written to SPANS at the end.  STATS gets per-name
call counts and self time (span time minus child spans), per-layer
self time, the `expint_ei` point count and the CLI's exit code.
The CLI report goes to stdout, as it does without tracing.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "qbm", "measures", "gaussian", "linalg", "specfun")


class Tracer:
    """Timing wrappers plus the spans they record."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.points: dict[str, int] = {}
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, count_points: bool = False):
        """The timing wrapper of ``fn``; one wrapper per function object."""
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, names_a, parent_a = self._stack, self.span_name, self.span_parent
        start_a, end_a, clock = self.span_start, self.span_end, time.perf_counter
        points = self.points

        def wrapper(*args, **kwargs):
            idx = len(names_a)
            names_a.append(nid)
            parent_a.append(stack[-1])
            start_a.append(0.0)
            end_a.append(0.0)
            if count_points and args:
                points[name] = points.get(name, 0) + int(np.size(args[0]))
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                start_a[idx] = t0
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _rebind(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package: str = "gaussimag"):
        """Rebind the public functions of every layer module of ``package``."""
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        modules.append(importlib.import_module(package))
        classes = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_own(obj, package):
                    continue
                if inspect.isclass(obj):
                    classes[id(obj)] = obj
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    name = f"{_layer(obj)}.{obj.__qualname__}"
                    self._rebind(module, attr, self.wrap(
                        obj, name, count_points=(name == "specfun.expint_ei")))
        for cls in classes.values():
            if issubclass(cls, BaseException):
                continue
            prefix = f"{_layer(cls)}.{cls.__qualname__}"
            for attr, raw in list(vars(cls).items()):
                if attr == "__init__":
                    label = "init"
                elif attr.startswith("_"):
                    continue
                else:
                    label = attr
                if isinstance(raw, (classmethod, staticmethod)):
                    self._rebind(cls, attr, type(raw)(
                        self.wrap(raw.__func__, f"{prefix}.{label}")))
                elif inspect.isfunction(raw):
                    self._rebind(cls, attr, self.wrap(raw, f"{prefix}.{label}"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict:
        """Per-name calls and self time, and per-layer self time."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        functions = {
            name: {"calls": int(calls[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names) if calls[i]
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for name, rec in functions.items():
            layers[name.split(".", 1)[0]] += rec["self_s"]
        return {"functions": functions, "layers": layers,
                "points": dict(self.points), "spans": len(dur)}

    def save_spans(self, path: Path):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.span_name),
                 parent=np.asarray(self.span_parent),
                 start=np.asarray(self.span_start), end=np.asarray(self.span_end))


def _layer(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def _is_own(obj, package: str) -> bool:
    return (inspect.isfunction(obj) or inspect.isclass(obj)) and (
        getattr(obj, "__module__", "") or "").startswith(package + ".")


def trace_main(argv: list[str]) -> tuple[int, Tracer]:
    """Run `gaussimag.cli.main(argv)` traced; return (exit code, tracer)."""
    from gaussimag import cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    return rc, tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--stats", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import gaussimag

    if not Path(gaussimag.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"gaussimag imported from {gaussimag.__file__}, not {src}")
    rc, tracer = trace_main(argv)
    sys.stdout.flush()
    stats = tracer.stats()
    stats["exit_code"] = rc
    args.stats.write_text(json.dumps(stats))
    if args.spans is not None:
        tracer.save_spans(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
