"""Command-line front-end.

Subcommands
-----------
validate     check a state/channel/superchannel document for physicality
measure      evaluate an imaginarity measure on a document
check-super  realness / imaginarity-breaking / free-set diagnostics
qbm          run a quantum-Brownian-motion trajectory and write CSV
audit        randomized theorem and monotonicity audits

Exit codes: 0 success, 1 usage/parse error, 2 physically invalid input,
3 computation failure (including a physicality form that overflows and
a measure value that is not finite), 4 audit counterexample.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import qbm
from .gaussian import (
    GaussianChannel,
    GaussianState,
    GaussianSuperchannel,
    ValidationError,
    apply_superchannel,
    channel_realness,
    from_document,
    sample_random_channel,
    sample_random_superchannel,
    superchannel_patterns,
    to_document,
    violated_constraint,
)
from .linalg import MAX_MODES, spectral_norm
from .measures import (
    StepThreshold,
    SupSearchConfig,
    channel_measure_ic,
    channel_measure_id,
    channel_measure_is,
    in_fo,
    in_fo1,
    state_measure_ign,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_COMPUTE = 3
EXIT_COUNTEREXAMPLE = 4


def _load_document(path):
    """The document's object and its :func:`violated_constraint`, or an exit
    code after one stderr line: 1 when the document cannot be read, 3 when
    finite entries overflow the physicality form, so validity is undecidable."""
    try:
        with open(path, "r") as fh:
            obj = from_document(json.load(fh))
    except (OSError, json.JSONDecodeError, ValidationError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with np.errstate(all="ignore"):
            return obj, violated_constraint(obj)
    except ValueError as exc:
        print(f"computation failed: physicality form overflows: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.get("results", {}).items():
            print(f"{key}: {value}")


def _report(command: str, path, results: dict, wall_time=None) -> dict:
    report = {"command": command, "results": results}
    if path is not None:
        report["input"] = {"path": str(path), "sha256": _digest(path)}
    if wall_time is not None:
        report["wall_time_s"] = round(wall_time, 6)
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    start = time.perf_counter()
    loaded = _load_document(args.path)
    if isinstance(loaded, int):
        return loaded
    obj, constraint = loaded
    results = {"kind": type(obj).__name__, "valid": not constraint}
    if constraint:
        results["violated_constraint"] = constraint
    _emit(_report("validate", args.path, results, time.perf_counter() - start), args.json)
    return EXIT_INVALID if constraint else EXIT_OK


def cmd_measure(args) -> int:
    start = time.perf_counter()
    loaded = _load_document(args.path)
    if isinstance(loaded, int):
        return loaded
    obj, constraint = loaded
    if constraint:
        print(f"invalid object: {constraint}", file=sys.stderr)
        return EXIT_INVALID

    which = args.which
    is_state = isinstance(obj, GaussianState)
    if which == "ign" and not is_state:
        print("measure 'ign' requires a state document", file=sys.stderr)
        return EXIT_USAGE
    if which in ("ic", "id", "is") and not isinstance(obj, GaussianChannel):
        print(f"measure '{which}' requires a channel document", file=sys.stderr)
        return EXIT_USAGE

    h = StepThreshold()
    if which == "is":
        try:
            cfg = SupSearchConfig(
                restarts=args.restarts,
                iterations_per_restart=args.iterations,
                seed=args.seed,
            )
        except ValueError as exc:
            print(f"bad parameters: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        # The value is checked below, so numpy's overflow warnings add nothing.
        with np.errstate(all="ignore"):
            if which == "ign":
                rep = state_measure_ign(obj, h)
            elif which == "ic":
                rep = channel_measure_ic(obj)
            elif which == "id":
                rep = channel_measure_id(obj, h)
            else:
                rep = channel_measure_is(obj, cfg, h)
    except ValidationError as exc:
        print(f"computation failed: measure '{which}': {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    if not np.isfinite(rep.value):
        print(f"computation failed: measure '{which}' is not finite ({rep.value})",
              file=sys.stderr)
        return EXIT_COMPUTE

    results = {
        "measure": which,
        "kind": rep.kind,
        "value": rep.value,
        "breakdown": {name: val for name, val in rep.breakdown},
    }
    if which == "is":
        results["search"] = {
            "restarts": args.restarts,
            "iterations_per_restart": args.iterations,
            "seed": args.seed,
            **rep.diagnostics,
        }
    _emit(_report("measure", args.path, results, time.perf_counter() - start), args.json)
    return EXIT_OK


def cmd_check_super(args) -> int:
    start = time.perf_counter()
    loaded = _load_document(args.path)
    if isinstance(loaded, int):
        return loaded
    obj, constraint = loaded
    if not isinstance(obj, GaussianSuperchannel):
        print("check-super requires a superchannel document", file=sys.stderr)
        return EXIT_USAGE
    if constraint:
        print(f"invalid superchannel: {constraint}", file=sys.stderr)
        return EXIT_INVALID

    patterns = superchannel_patterns(obj)
    results = {
        "isReal": patterns.is_real,
        "isImaginarityBreaking": patterns.is_imaginarity_breaking,
        "inFO": in_fo(obj),
        "inFO1": in_fo1(obj),
        "diagnostics": {**dataclasses.asdict(patterns), "spectral_norm_A": spectral_norm(obj.A)},
    }
    _emit(_report("check-super", args.path, results, time.perf_counter() - start), args.json)
    return EXIT_OK


def _unwritable(path) -> str | None:
    """Why ``path`` cannot be written, or None; creates and truncates nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"no such directory: {parent!r}"
    if os.path.isdir(path):
        return f"is a directory: {path!r}"
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return f"permission denied: {path!r}"
    return None


def cmd_qbm(args) -> int:
    start = time.perf_counter()
    # Checked before computing so that a bad path fails at once; the write
    # below keeps its own handler for what only the write can find.
    problem = _unwritable(args.out)
    if problem is not None:
        print(f"cannot write output: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = qbm.QbmConfig(
            alpha=args.alpha, x=args.x, theta=args.theta, regime=args.regime
        )
        # A ValueError here comes from the parameters: a grid too large
        # to build, or Ei arguments that overflow.  The trajectory checks
        # every value for finiteness, so numpy's warnings add nothing.
        with np.errstate(all="ignore"):
            traj = qbm.imaginarity_trajectory(cfg, args.horizon, args.step)
    except ValueError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError, MemoryError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    try:
        traj.write_csv(args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE

    period = np.pi * cfg.x
    window = 10.0 * period
    results = {
        "rows": len(traj.tau),
        "out": str(args.out),
        "cross_check_error": traj.cross_check_error,
        "wbar_asymmetry": traj.wbar_asymmetry,
    }
    if args.horizon > window:
        win_start = args.horizon - window
        results["window_start"] = win_start
        results["window_mean_Ic"] = traj.window_mean(win_start, window)
    _emit(_report("qbm", None, results, time.perf_counter() - start), args.json)
    return EXIT_OK


def _audit_suites(modes: int, trials: int, seed: int):
    """Randomized theorem/monotonicity audits; yields counterexamples."""
    root = np.random.SeedSequence(seed)
    streams = [np.random.default_rng(s) for s in root.spawn(4)]

    # Forward direction: real superchannel x real channel -> real channel.
    rng = streams[0]
    for _ in range(trials):
        flag = "real-eq8" if rng.uniform() < 0.5 else "real-eq9"
        branch = "completely-real" if rng.uniform() < 0.5 else "covariant-real"
        sup = sample_random_superchannel(modes, rng, flag)
        chan = sample_random_channel(modes, rng, branch)
        if not channel_realness(apply_superchannel(sup, chan)).is_real:
            yield ("theorem1_forward", sup, chan)

    # Breaking superchannels produce real output from any input channel.
    rng = streams[1]
    for _ in range(trials):
        sup = sample_random_superchannel(modes, rng, "breaking")
        chan = sample_random_channel(modes, rng, "any")
        if not channel_realness(apply_superchannel(sup, chan)).is_real:
            yield ("theorem2_forward", sup, chan)

    # I_d monotonicity under real superchannels.
    rng = streams[2]
    h = StepThreshold()
    for _ in range(trials):
        flag = "real-eq8" if rng.uniform() < 0.5 else "real-eq9"
        sup = sample_random_superchannel(modes, rng, flag)
        chan = sample_random_channel(modes, rng, "any")
        before = channel_measure_id(chan, h).value
        after = channel_measure_id(apply_superchannel(sup, chan), h).value
        if after > before + 1e-9:
            yield ("id_monotonicity", sup, chan)

    # I_c monotonicity under FO1 members.
    rng = streams[3]
    for _ in range(trials):
        sup = sample_random_superchannel(modes, rng, "real-eq9", unit_norm_a=True)
        chan = sample_random_channel(modes, rng, "any")
        before = channel_measure_ic(chan).value
        after = channel_measure_ic(apply_superchannel(sup, chan)).value
        if after > before + 1e-9:
            yield ("ic_monotonicity", sup, chan)


def cmd_audit(args) -> int:
    problem = (
        "trials must be >= 1" if args.trials < 1
        else f"modes must be in [1, {MAX_MODES}]" if not 1 <= args.modes <= MAX_MODES
        else "seed must be >= 0" if args.seed < 0
        else None
    )
    if problem is not None:
        print(f"bad parameters: {problem}", file=sys.stderr)
        return EXIT_USAGE
    counterexamples = []
    for name, sup, chan in _audit_suites(args.modes, args.trials, args.seed):
        counterexamples.append(
            {
                "suite": name,
                "superchannel": to_document(sup),
                "channel": to_document(chan),
            }
        )
    results = {
        "modes": args.modes,
        "trials": args.trials,
        "seed": args.seed,
        "suites": [
            "theorem1_forward",
            "theorem2_forward",
            "id_monotonicity",
            "ic_monotonicity",
        ],
        "counterexamples": counterexamples,
        "passed": not counterexamples,
    }
    # No wall time here: audit reports are contractually byte-identical
    # for a fixed seed.
    _emit(_report("audit", None, results), args.json)
    return EXIT_OK if not counterexamples else EXIT_COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussimag",
        description="Imaginarity of Gaussian quantum channels: validation, "
        "measures, superchannel structure, and QBM dynamics.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON run report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a state/channel/superchannel document")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("measure", help="evaluate an imaginarity measure")
    p.add_argument("path")
    p.add_argument("--which", choices=["ic", "id", "is", "ign"], required=True)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("check-super", help="superchannel structure diagnostics")
    p.add_argument("path")
    p.set_defaults(func=cmd_check_super)

    p = sub.add_parser("qbm", help="run a QBM imaginarity trajectory")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--regime", choices=["high", "low"], default="high")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--step", type=float, default=qbm.DEFAULT_STEP)
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_qbm)

    p = sub.add_parser("audit", help="randomized theorem/monotonicity audits")
    p.add_argument("--modes", type=int, default=1)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
