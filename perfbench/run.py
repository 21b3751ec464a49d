"""gaussimag benchmark: drive the CLI as a user does and report its metrics.

    python3 perfbench/run.py --workload qbm-long --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # the workloads BENCHMARK.json declares
    python3 perfbench/run.py --workload audit    # runnable, but not declared (README.md)

Run it from anywhere; it benchmarks the `src/` tree next to this
directory and exits with code 2 when that tree is missing.  Each
operation is a fresh `python3 -m gaussimag.cli` child, one at a time
(a closed loop with one client), timed from spawn to exit.  Whole
rounds of the workload's operations repeat until `--seconds` have
passed and at least MIN_ROUNDS have run.  Every output is checked (workloads.check).

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of one traced round
(tracer.py).  Earlier lines give the same figures as a table, the
error rate and the environment record.  README.md explains each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

#: Timed fresh-interpreter imports per run; setup_s is their median.
SETUP_REPEATS = 3
#: Rounds per run at least, however long they take.  The host's speed
#: drifts by +-20% over seconds, so one 18 s qbm-long operation per run
#: is too few for a steady median.
MIN_ROUNDS = 2
#: A child still running after this long is killed and counted as failed.
OP_TIMEOUT_S = 150.0

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("work_per_s", "units/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Function spans whose call count and self time are per-layer metrics.
TRACED_FUNCTIONS = [
    "specfun.expint_ei",
    "qbm.coeff_gamma_closed",
    "qbm.coeff_delta_closed",
    "qbm.coeff_pi_closed",
    "qbm.gamma_capital",
    "qbm.imaginarity_trajectory",
    "qbm.Trajectory.write_csv",
    "measures.channel_measure_ic",
    "measures.channel_measure_is",
    "measures.state_measure_ign",
    "gaussian.apply_channel",
    "gaussian.validate_any",
    "linalg.trace_norm",
    "linalg.spectral_norm",
    "linalg.mode_permutation",
    "linalg.selectors",
    "linalg.symplectic_form",
    "linalg.is_psd",
]
#: Functions that only the `audit` workload calls; only its traced runs
#: report them.
AUDIT_FUNCTIONS = [
    "measures.channel_measure_id",
    "gaussian.apply_superchannel",
    "gaussian.channel_realness",
    "gaussian.sample_random_channel",
    "gaussian.sample_random_superchannel",
    "linalg.sigma_blocks",
]
#: Constructors whose call counts are per-layer metrics.
TRACED_CONSTRUCTORS = ["gaussian.GaussianChannel.init", "gaussian.GaussianState.init"]



def _function_metrics(functions: list) -> list:
    return [(f"{f}.{field}", unit, "lower")
            for f in functions for field, unit in (("calls", "count"), ("self_s", "s"))]


PER_LAYER = (
    _function_metrics(TRACED_FUNCTIONS)
    + [(f"{c}.calls", "count", "lower") for c in TRACED_CONSTRUCTORS]
    + [
        ("specfun.expint_ei.points", "count", "lower"),
        ("specfun.ei_points_per_row", "points/row", "lower"),
        ("qbm.csv_bytes", "bytes", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.report_bytes", "bytes", "lower"),
        ("cli.child_cpu_s", "s", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS if layer != "cli"]
    + [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
)
AUDIT_PER_LAYER = PER_LAYER + _function_metrics(AUDIT_FUNCTIONS)


@dataclass
class Child:
    """Outcome of one child process."""

    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(cmd: list, env: dict, cwd: Path, stdout: Path) -> Child:
    """Run ``cmd`` to completion; time it from spawn to exit.

    The child is reaped with os.wait4, which returns its own resource
    usage (RUSAGE_CHILDREN would only give a running maximum of RSS).
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        status = None
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                if not poller.poll(int(OP_TIMEOUT_S * 1000)):
                    proc.kill()
            finally:
                os.close(fd)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            if status is None:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaussimag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Runner:
    """Runs one workload's operations as CLI children and checks them."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.tmp = tmp
        self.env = child_env()
        self.ops = workloads.build(workload, seed, tmp)
        self.reference = workloads.load_reference()
        self.seen: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.log: list[dict] = []

    def _settle(self, op: workloads.Op, rc: int, report: Path) -> bool:
        self.attempted += 1
        error = workloads.check(op, rc, report.read_bytes(), self.seen, self.reference)
        if error is not None:
            self.failures.append(f"{op.key}: {error}")
        return error is None

    def _log(self, op: workloads.Op, child: Child, ok: bool, traced: bool):
        self.log.append({"op": op.key, "traced": traced, "ok": ok, "wall_s": child.wall_s,
                         "cpu_s": child.cpu_s, "rss_mb": child.rss_mb})

    def setup_times(self) -> list[float]:
        """Wall times of fresh interpreters importing gaussimag.cli, after one warm-up."""
        times = []
        for i in range(SETUP_REPEATS + 1):
            child = spawn([sys.executable, "-c", "import gaussimag.cli"],
                          self.env, self.tmp, self.tmp / "import.out")
            if child.rc != 0:
                err = (self.tmp / "import.err").read_text()
                raise SystemExit(f"importing gaussimag.cli failed:\n{err}")
            if i:
                times.append(child.wall_s)
        return times

    def run_op(self, op: workloads.Op) -> tuple[Child, bool]:
        report = self.tmp / f"{op.key}.report"
        child = spawn([sys.executable, "-m", "gaussimag.cli", *op.argv],
                      self.env, self.tmp, report)
        ok = self._settle(op, child.rc, report)
        self._log(op, child, ok, traced=False)
        return child, ok

    def run_traced(self, op: workloads.Op) -> tuple[Child, dict]:
        report = self.tmp / f"{op.key}.traced.report"
        stats_path = self.tmp / f"{op.key}.stats.json"
        OUT_DIR.mkdir(exist_ok=True)
        cmd = [sys.executable, str(HERE / "tracer.py"), "--src", str(SRC),
               "--stats", str(stats_path),
               "--spans", str(OUT_DIR / f"spans-{op.key}.npz"), "--", *op.argv]
        child = spawn(cmd, self.env, self.tmp, report)
        rc = child.rc
        stats = {}
        if rc == 0:
            stats = json.loads(stats_path.read_text())
            rc = stats["exit_code"]
        stats["report_bytes"] = report.stat().st_size
        stats["csv_bytes"] = op.csv.stat().st_size if op.csv and op.csv.exists() else 0
        ok = self._settle(op, rc, report)
        self._log(op, child, ok, traced=True)
        return child, stats


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics of a closed loop of whole rounds.

    Rounds repeat until ``seconds`` have passed and MIN_ROUNDS have run.
    """
    setup = runner.setup_times()
    children, units = [], 0.0
    start = time.perf_counter()
    for rounds in itertools.count(1):
        for op in runner.ops:
            children.append(runner.run_op(op)[0])
            units += op.units
        if rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
    return {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(c.wall_s for c in children),
        "work_per_s": units / sum(c.wall_s for c in children),
        "peak_rss_mb": max(c.rss_mb for c in children),
    }


def measure_traced(runner: Runner) -> dict:
    """Per-layer metrics of one round, each operation run untraced then traced."""
    plain, traced = [], []
    for op in runner.ops:
        plain.append(runner.run_op(op)[0])
        traced.append(runner.run_traced(op))
    functions: dict = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    points = spans = report_bytes = csv_bytes = rows = 0
    for op, (_, stats) in zip(runner.ops, traced):
        for name, rec in stats.get("functions", {}).items():
            acc = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += rec["calls"]
            acc["self_s"] += rec["self_s"]
        for layer, value in stats.get("layers", {}).items():
            layers[layer] += value
        points += stats.get("points", {}).get("specfun.expint_ei", 0)
        spans += stats.get("spans", 0)
        report_bytes += stats["report_bytes"]
        csv_bytes += stats["csv_bytes"]
        rows += op.units if op.kind == "qbm" else 0
    metrics = {}
    for name in TRACED_FUNCTIONS + AUDIT_FUNCTIONS + TRACED_CONSTRUCTORS:
        rec = functions.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = rec["calls"]
        if name not in TRACED_CONSTRUCTORS:
            metrics[f"{name}.self_s"] = rec["self_s"]
    metrics.update({
        "specfun.expint_ei.points": points,
        "specfun.ei_points_per_row": points / rows if rows else 0.0,
        "qbm.csv_bytes": csv_bytes,
        "cli.main.self_s": layers["cli"],
        "cli.report_bytes": report_bytes,
        "cli.child_cpu_s": statistics.median(c.cpu_s for c in plain),
        "trace.overhead_s": sum(c.wall_s for c, _ in traced) - sum(c.wall_s for c in plain),
        "trace.spans": spans,
    })
    metrics.update({f"{layer}.self_s": value for layer, value in layers.items()
                    if layer != "cli"})
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: its result line plus the environment record."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = TMP_ROOT / f"{workload}-{os.getpid()}"
    tmp.mkdir()
    try:
        runner = Runner(workload, seed, tmp)
        values = measure_traced(runner) if trace else measure(runner, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    per_layer = AUDIT_PER_LAYER if workload == "audit" else PER_LAYER
    units = {name: unit for name, unit, _ in (per_layer if trace else END_TO_END)}
    return {
        "workload": workload,
        "env": environment(seed),
        "failures": runner.failures,
        "operations": runner.log,
        "result": {
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def print_record(record: dict):
    res = record["result"]
    print(f"workload {record['workload']}  seed {record['env']['seed']}")
    for name, metric in res["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<44} {res['failed'] / res['attempted']:>14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} operations failed)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(record["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaussimag CLI benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, *workloads.EXTRA_WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "gaussimag" / "cli.py").is_file():
        print(f"no gaussimag source tree at {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        records.append(record)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(records, indent=1))
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
