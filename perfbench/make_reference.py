"""Write reference.json: reference outputs of the default-seed inputs.

    python3 perfbench/make_reference.py

Runs every qbm and is-search operation of the default seed once through
the CLI and stores a subsample of each CSV (every STRIDE-th row and the
last) and each I_s value.  run.py then requires later outputs of the same
inputs to agree with them to workloads.ROW_TOL.  The reference records
the program's outputs at the commit where it was made; regenerate it
only when a change to those outputs is intended and explained.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

STRIDE = {"qbm-long": 1000, "qbm-panel": 500}


def main() -> int:
    reference = {}
    tmp = run.TMP_ROOT / "make-reference"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = run.child_env()
        for workload in ("qbm-long", "qbm-panel", "is-search"):
            for op in workloads.build(workload, workloads.DEFAULT_SEED, tmp):
                report = tmp / f"{op.key}.report"
                child = run.spawn([sys.executable, "-m", "gaussimag.cli", *op.argv],
                                  env, tmp, report)
                if child.rc != 0:
                    raise SystemExit(f"{op.key}: exit code {child.rc}")
                key = workloads.reference_key(op)
                if op.kind == "qbm":
                    rows = workloads.read_csv(op.csv)
                    index = sorted(set(range(0, len(rows), STRIDE[workload])) | {len(rows) - 1})
                    reference[key] = {"index": index, "rows": rows[index].tolist()}
                else:
                    value = json.loads(report.read_bytes())["results"]["value"]
                    reference[key] = {"value": value}
                print(f"{key}: {child.wall_s:.2f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in reference.items()]
    workloads.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
