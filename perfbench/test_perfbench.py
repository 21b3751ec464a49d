"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench

They run a few short CLI operations (horizon 5 and 60), about 15 s in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads


@pytest.fixture
def runner(tmp_path):
    return run.Runner("qbm-panel", workloads.DEFAULT_SEED, tmp_path)


def _run_cli(op, tmp_path) -> Path:
    report = tmp_path / f"{op.key}.report"
    child = run.spawn([sys.executable, "-m", "gaussimag.cli", *op.argv],
                      run.child_env(), tmp_path, report)
    assert child.rc == 0
    return report


def test_default_seed_inputs(tmp_path):
    (long_op,) = workloads.build("qbm-long", workloads.DEFAULT_SEED, tmp_path)
    assert long_op.argv == [
        "--json", "qbm", "--alpha", "0.03", "--x", "0.5", "--theta", "100.0",
        "--regime", "high", "--horizon", "615.7", "--out", str(long_op.csv)]
    assert long_op.units == 61571
    panel = workloads.build("qbm-panel", 3, tmp_path)
    assert sorted(op.key for op in panel) == ["panel0", "panel1", "panel2", "panel3"]
    assert {op.units for op in panel} == {6001}
    is_ops = workloads.build("is-search", 5, tmp_path)
    assert [json.loads(Path(op.argv[2]).read_text())["modes"] for op in is_ops] == [1, 2, 3, 4]
    assert {op.units for op in is_ops} == {6433}


def test_corrupted_csv_and_report_count_as_failures(runner, tmp_path):
    cfg = workloads.QBM_PANEL_CONFIGS[0]
    op = workloads.qbm_op("short", cfg, 5.0, tmp_path)
    report = _run_cli(op, tmp_path)
    assert runner._settle(op, 0, report)

    good_csv = op.csv.read_text()
    lines = good_csv.splitlines()
    fields = lines[200].split(",")
    fields[1] = repr(float(fields[1]) + 1e-9)
    op.csv.write_text("\n".join(lines[:200] + [",".join(fields)] + lines[201:]) + "\n")
    assert not runner._settle(op, 0, report)

    op.csv.write_text(good_csv)
    doc = json.loads(report.read_text())
    doc["results"]["rows"] -= 1
    report.write_text(json.dumps(doc))
    assert not runner._settle(op, 0, report)
    report.write_text("not json")
    assert not runner._settle(op, 0, report)
    assert runner.attempted == 4 and len(runner.failures) == 3


def test_audit_and_is_reports_are_checked(tmp_path):
    (audit,) = workloads.build("audit", 7, tmp_path)
    good = {"command": "audit", "results": {
        "trials": workloads.AUDIT_TRIALS, "seed": 7, "counterexamples": [], "passed": True}}
    seen, ref = {}, {}
    assert workloads.check(audit, 0, json.dumps(good).encode(), seen, ref) is None
    assert workloads.check(audit, 0, json.dumps(good, indent=1).encode(), seen, ref)
    bad = json.loads(json.dumps(good))
    bad["results"]["passed"] = False
    assert workloads.check(audit, 0, json.dumps(bad).encode(), {}, ref)
    assert workloads.check(audit, 4, json.dumps(good).encode(), {}, ref)

    is_op = workloads.build("is-search", workloads.DEFAULT_SEED, tmp_path)[0]
    reference = workloads.load_reference()
    value = reference[workloads.reference_key(is_op)]["value"]

    def report(v):
        return json.dumps({"results": {"measure": "is", "value": v}}).encode()

    seen = {}
    assert workloads.check(is_op, 0, report(value), seen, reference) is None
    assert workloads.check(is_op, 0, report(value + 1e-6), seen, reference)
    assert workloads.check(is_op, 0, report(value + 1e-6), {}, reference)
    assert workloads.check(is_op, 0, report(2.0), {}, {})


@pytest.mark.parametrize("regime,theta,points_per_row", [("high", 100.0, 52), ("low", 10.0, 84)])
def test_trace_catches_from_import_bindings(tmp_path, regime, theta, points_per_row):
    cfg = {"alpha": 0.03, "x": 0.5, "theta": theta, "regime": regime}
    op = workloads.qbm_op(regime, cfg, 60.0, tmp_path)
    stats_path = tmp_path / "stats.json"
    src_before = run.environment(0)["src_sha256"]
    child = run.spawn([sys.executable, str(run.HERE / "tracer.py"), "--src", str(run.SRC),
                       "--stats", str(stats_path), "--", *op.argv],
                      run.child_env(), tmp_path, tmp_path / "report.json")
    assert child.rc == 0
    stats = json.loads(stats_path.read_text())
    assert stats["exit_code"] == 0
    # qbm calls channel_measure_ic and expint_ei through from-import bindings.
    assert stats["functions"]["measures.channel_measure_ic"]["calls"] == 6001
    assert round(stats["points"]["specfun.expint_ei"] / 6001) == points_per_row
    assert workloads.check(op, 0, (tmp_path / "report.json").read_bytes(), {},
                           workloads.load_reference()) is None
    assert run.environment(0)["src_sha256"] == src_before


def test_benchmark_json_lists_the_harness_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        assert listed == metrics


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "is-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
