"""Workload inputs and output checks for the gaussimag benchmark.

A workload is a list of operations.  Each operation is one `gaussimag`
CLI invocation (argv after the program name), the units of work it
completes, and a check of its outputs.  Inputs come from the workload
seed alone; the program under test is never used to make them, so a
change to the program cannot change what it is asked to do.

One "round" runs every operation of the workload once; the closed loop
in run.py repeats whole rounds, so every run has the same mix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Seed whose inputs are the exact commands quoted in README.md.
DEFAULT_SEED = 0

QBM_STEP = 0.01
QBM_LONG_HORIZON = 615.7
QBM_PANEL_HORIZON = 60.0
#: The four figure panels (tests/test_acceptance.py::FIGURE_CONFIGS).
QBM_PANEL_CONFIGS = [
    {"alpha": 0.03, "x": 0.5, "theta": 100.0, "regime": "high"},
    {"alpha": 0.03, "x": 0.7, "theta": 100.0, "regime": "high"},
    {"alpha": 0.03, "x": 0.9, "theta": 100.0, "regime": "high"},
    {"alpha": 0.03, "x": 0.5, "theta": 10.0, "regime": "low"},
]
CSV_HEADER = "tau,Ic,Gamma,N12,term_T21,term_T12T22"
#: Row identities and reference rows must hold to this absolute
#: tolerance (scaled by max(1, |value|)).
ROW_TOL = 1e-10

AUDIT_MODES = 2
AUDIT_TRIALS = 1000
AUDIT_SUITES = 4

#: CLI defaults of `measure --which is`: restarts x iterations.
IS_RESTARTS = 32
IS_ITERATIONS = 200
IS_MODES = (1, 2, 3, 4)

#: The workloads BENCHMARK.json declares, which every commit must pass.
WORKLOADS = ("qbm-long", "qbm-panel", "is-search")
#: Runnable by name but not declared: `audit` finds genuine I_c
#: monotonicity counterexamples on some seeds (README.md, "Known defect"),
#: so it cannot be a workload on which no operation fails.
EXTRA_WORKLOADS = ("audit",)


@dataclass
class Op:
    """One CLI operation: argv after `gaussimag`, its work units, its kind of check."""

    key: str
    argv: list
    units: float
    kind: str
    params: dict = field(default_factory=dict)
    csv: Path | None = None


def grid_rows(horizon: float, step: float = QBM_STEP) -> int:
    """Number of grid points 0, step, ..., horizon (horizon always included)."""
    grid = np.arange(0.0, horizon + 0.5 * step, step)
    return len(grid) + (1 if grid[-1] < horizon - 1e-12 else 0)


def qbm_op(key: str, cfg: dict, horizon: float, tmp: Path) -> Op:
    csv = tmp / f"{key}.csv"
    argv = [
        "--json", "qbm",
        "--alpha", repr(cfg["alpha"]), "--x", repr(cfg["x"]),
        "--theta", repr(cfg["theta"]), "--regime", cfg["regime"],
        "--horizon", repr(horizon), "--out", str(csv),
    ]
    return Op(key, argv, grid_rows(horizon), "qbm",
              {**cfg, "horizon": horizon}, csv)


def _channel_document(modes: int, rng: np.random.Generator) -> dict:
    """A random valid channel (T, N, d) built with numpy alone.

    N = G G^T + (s + margin) I with s the spectral norm of
    Delta - T Delta T^T, so N + i(Delta - T Delta T^T) >= margin I.
    """
    dim = 2 * modes
    delta = np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    t = rng.standard_normal((dim, dim))
    t *= rng.uniform(0.2, 1.4) / np.linalg.norm(t, 2)
    g = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    s = np.linalg.norm(delta - t @ delta @ t.T, 2)
    n = g @ g.T + (s + 1e-3) * np.eye(dim)
    d = rng.uniform(-1.0, 1.0, dim)
    return {"kind": "channel", "modes": modes, "T": t.tolist(),
            "N": (0.5 * (n + n.T)).tolist(), "d": d.tolist()}


def build(workload: str, seed: int, tmp: Path) -> list[Op]:
    """The operations of one round of ``workload`` for ``seed``.

    Input files are written under ``tmp``.
    """
    rng = np.random.default_rng(seed)
    if workload == "qbm-long":
        if seed == DEFAULT_SEED:
            cfg = {"alpha": 0.03, "x": 0.5}
        else:
            cfg = {"alpha": float(rng.uniform(0.01, 0.05)),
                   "x": float(rng.uniform(0.5, 0.9))}
        cfg.update(theta=100.0, regime="high")
        return [qbm_op("long", cfg, QBM_LONG_HORIZON, tmp)]
    if workload == "qbm-panel":
        order = [int(i) for i in rng.permutation(len(QBM_PANEL_CONFIGS))]
        return [qbm_op(f"panel{i}", QBM_PANEL_CONFIGS[i], QBM_PANEL_HORIZON, tmp)
                for i in order]
    if workload == "audit":
        argv = ["--json", "audit", "--modes", str(AUDIT_MODES),
                "--trials", str(AUDIT_TRIALS), "--seed", str(seed)]
        return [Op("audit", argv, AUDIT_SUITES * AUDIT_TRIALS, "audit",
                   {"seed": seed})]
    if workload == "is-search":
        ops = []
        for k, modes in enumerate(IS_MODES):
            doc = _channel_document(modes, np.random.default_rng([seed, k]))
            path = tmp / f"channel{k}.json"
            path.write_text(json.dumps(doc))
            ops.append(Op(f"is{k}", ["--json", "measure", str(path), "--which", "is"],
                          1 + IS_RESTARTS * (1 + IS_ITERATIONS), "is",
                          {"seed": seed, "index": k}))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_key(op: Op) -> str:
    """Key of an operation's entry in reference.json."""
    p = op.params
    if op.kind == "qbm":
        return (f"qbm alpha={p['alpha']!r} x={p['x']!r} theta={p['theta']!r} "
                f"regime={p['regime']} horizon={p['horizon']!r}")
    if op.kind == "is":
        return f"is seed={p['seed']} index={p['index']}"
    return f"{op.kind} seed={p.get('seed')}"


def read_csv(path: Path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"CSV header {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _close(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= ROW_TOL * np.maximum(1.0, np.abs(b))


def check_qbm(op: Op, report: dict, reference: dict) -> str | None:
    if report["results"]["rows"] != op.units:
        return f"report rows {report['results']['rows']} != grid size {op.units}"
    try:
        rows = read_csv(op.csv)
    except (OSError, ValueError) as exc:
        return f"unreadable CSV: {exc}"
    if rows.shape != (op.units, 6):
        return f"CSV shape {rows.shape} != ({op.units}, 6)"
    tau, ic, big_gamma, n12, t21, t12t22 = rows.T
    if not np.all(np.isfinite(rows)):
        return "CSV holds non-finite values"
    grid = np.minimum(np.arange(op.units) * QBM_STEP, op.params["horizon"])
    if not np.all(_close(tau, grid)):
        return "tau column is not the grid"
    bad = ~_close(ic, t21 + t12t22 + np.abs(n12))
    if bad.any():
        return f"row {int(np.argmax(bad))}: Ic != term_T21 + term_T12T22 + |N12|"
    expected = np.abs(np.exp(-big_gamma / 2.0) * np.sin(tau / op.params["x"]))
    bad = ~_close(t21, expected)
    if bad.any():
        return f"row {int(np.argmax(bad))}: term_T21 != |e^(-Gamma/2) sin(tau/x)|"
    ref = reference.get(reference_key(op))
    if ref is not None:
        got = rows[ref["index"]]
        bad = ~np.all(_close(got, ref["rows"]), axis=1)
        if bad.any():
            return f"row {ref['index'][int(np.argmax(bad))]} differs from reference"
    return None


def check(op: Op, rc: int, stdout: bytes, seen: dict, reference: dict) -> str | None:
    """Why the operation's outputs are wrong, or None when they are right.

    ``seen`` maps each operation key to its first accepted output within
    a run, for the repeat checks; ``reference`` is reference.json.
    """
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit code {rc}" if rc else "report is not JSON"
    try:
        return _check_report(op, rc, stdout, report, seen, reference)
    except (KeyError, TypeError) as exc:
        return f"exit code {rc}" if rc else f"report lacks a field: {exc!r}"


def _check_report(op, rc, stdout, report, seen, reference):
    if op.kind == "audit" and report["results"].get("counterexamples"):
        suites = sorted({c["suite"] for c in report["results"]["counterexamples"]})
        return f"exit code {rc}; audit counterexamples in {', '.join(suites)}"
    if rc != 0:
        return f"exit code {rc}"
    if op.kind == "qbm":
        return check_qbm(op, report, reference)
    if op.kind == "audit":
        res = report["results"]
        if res.get("passed") is not True:
            return "audit did not pass"
        if (res.get("trials"), res.get("seed")) != (AUDIT_TRIALS, op.params["seed"]):
            return "audit report echoes other parameters"
        if seen.setdefault(op.key, stdout) != stdout:
            return "audit report differs from an earlier one with the same seed"
        return None
    if op.kind == "is":
        value = report["results"].get("value")
        if not isinstance(value, float) or not 0.0 <= value < 2.0:
            return f"I_s value {value!r} outside [0, 2)"
        if seen.setdefault(op.key, value) != value:
            return f"I_s value {value!r} differs from {seen[op.key]!r} on a repeat"
        ref = reference.get(reference_key(op))
        if ref is not None and not _close(value, ref["value"]):
            return f"I_s value {value!r} differs from reference {ref['value']!r}"
        return None
    raise ValueError(f"unknown operation kind {op.kind!r}")
