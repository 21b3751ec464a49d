"""Command-line front-end.

Subcommands
-----------
validate     check a state/channel/superchannel document for physicality
measure      evaluate an imaginarity measure on a document
check-super  realness / imaginarity-breaking / free-set diagnostics
qbm          run a quantum-Brownian-motion trajectory and write CSV
audit        randomized theorem and monotonicity audits

Exit codes: 0 success, 1 usage/parse error or unwritable output,
2 physically invalid input, 3 computation failure (including a
physicality form that overflows and a measure value that is not finite),
4 audit counterexample.

The ``gaussimag`` command and ``python -m gaussimag.cli`` enter through
:func:`run`: it has glibc's malloc keep freed pages, runs :func:`main`,
freezes the heap so that the collection at exit skips it, and exits.
:func:`main` does none of this, since tests and library callers call it
in a process that it does not own.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import json
import os
import sys
import time

# One OpenBLAS thread unless the user set a count: the CLI's matrices are at most
# 128 x 128.  OpenBLAS reads it once, as numpy loads, so later children do not inherit it.
_BLAS_UNSET = "OPENBLAS_NUM_THREADS" not in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
if _BLAS_UNSET:
    del os.environ["OPENBLAS_NUM_THREADS"]

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
from .linalg import MAX_MODES
from .measures import (
    SupSearchConfig,
    channel_measure_ic,
    channel_measure_id,
    channel_measure_is,
    state_measure_ign,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_COMPUTE = 3
EXIT_COUNTEREXAMPLE = 4


class _Exit(Exception):
    """A failure, raised where it is found: :func:`main` prints its message
    as one stderr line and returns its exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_document(path):
    """The document's object, its :func:`violated_constraint` and its input
    record ``{"path", "sha256"}``, the digest being that of the bytes parsed.
    Raises :class:`_Exit` with code 1 when the document cannot be read, and
    with 3 when finite entries overflow the physicality form, so validity is
    undecidable."""
    import hashlib  # here, so that qbm does not load OpenSSL

    try:
        with open(path, "rb") as fh:
            data = fh.read()
        obj = from_document(json.loads(data.decode()))
    except (OSError, json.JSONDecodeError, ValidationError, ValueError, RecursionError) as exc:
        raise _Exit(EXIT_USAGE, f"parse error: {exc}") from exc
    source = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    try:
        with np.errstate(all="ignore"):
            return obj, violated_constraint(obj), source
    except ValueError as exc:
        raise _Exit(EXIT_COMPUTE,
                    f"computation failed: physicality form overflows: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands: each returns its exit code, its results and its input record
# (or None), and main builds and prints the report
# ---------------------------------------------------------------------------

def cmd_validate(args):
    obj, constraint, source = _load_document(args.path)
    results = {"kind": type(obj).__name__, "valid": not constraint}
    if constraint:
        results["violated_constraint"] = constraint
    return EXIT_INVALID if constraint else EXIT_OK, results, source


#: ``measure --which``: the class of object that each measure takes, its kind word, the measure
_MEASURES = {
    "ic": (GaussianChannel, "channel", channel_measure_ic),
    "id": (GaussianChannel, "channel", channel_measure_id),
    "is": (GaussianChannel, "channel", channel_measure_is),
    "ign": (GaussianState, "state", state_measure_ign),
}


def cmd_measure(args):
    obj, constraint, source = _load_document(args.path)
    if constraint:
        raise _Exit(EXIT_INVALID, f"invalid object: {constraint}")

    which = args.which
    cls, kind, measure = _MEASURES[which]
    if not isinstance(obj, cls):
        raise _Exit(EXIT_USAGE, f"measure '{which}' requires a {kind} document")

    if which == "is":
        try:
            cfg = SupSearchConfig(restarts=args.restarts,
                                  iterations_per_restart=args.iterations, seed=args.seed)
        except ValueError as exc:
            raise _Exit(EXIT_USAGE, f"bad parameters: {exc}") from exc
    try:
        # The value is checked below, so numpy's overflow warnings add nothing.
        with np.errstate(all="ignore"):
            rep = measure(obj, cfg) if which == "is" else measure(obj)
    except ValidationError as exc:
        raise _Exit(EXIT_COMPUTE, f"computation failed: measure '{which}': {exc}") from exc
    if not np.isfinite(rep.value):
        raise _Exit(EXIT_COMPUTE,
                    f"computation failed: measure '{which}' is not finite ({rep.value})")

    results = {
        "measure": which,
        "kind": rep.kind,
        "value": rep.value,
        "breakdown": {name: val for name, val in rep.breakdown},
    }
    if which == "is":
        results["search"] = {**dataclasses.asdict(cfg), **rep.diagnostics}
    return EXIT_OK, results, source


def cmd_check_super(args):
    obj, constraint, source = _load_document(args.path)
    if not isinstance(obj, GaussianSuperchannel):
        raise _Exit(EXIT_USAGE, "check-super requires a superchannel document")
    if constraint:
        raise _Exit(EXIT_INVALID, f"invalid superchannel: {constraint}")

    patterns = superchannel_patterns(obj)
    results = {
        "isReal": patterns.is_real,
        "isImaginarityBreaking": patterns.is_imaginarity_breaking,
        "inFO": patterns.in_fo,
        "inFO1": patterns.in_fo1,
        "diagnostics": dataclasses.asdict(patterns),
    }
    return EXIT_OK, results, source


def _unwritable(path) -> str | None:
    """Why ``path`` cannot be written, or None; creates and truncates nothing."""
    if not path or path.endswith(os.sep):
        return f"not a file name: {path!r}"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"no such directory: {parent!r}"
    if os.path.isdir(path):
        return f"is a directory: {path!r}"
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return f"permission denied: {path!r}"
    return None


def cmd_qbm(args):
    # Checked before computing so that a bad path fails at once; the write
    # below keeps its own handler for what only the write can find.
    problem = _unwritable(args.out)
    if problem is not None:
        raise _Exit(EXIT_USAGE, f"cannot write output: {problem}")
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
        raise _Exit(EXIT_USAGE, f"bad parameters: {exc}") from exc
    except (RuntimeError, ArithmeticError, MemoryError) as exc:
        raise _Exit(EXIT_COMPUTE, f"computation failed: {exc}") from exc
    try:
        traj.write_csv(args.out)
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"cannot write output: {exc}") from exc

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
    return EXIT_OK, results, None


#: The audit's suites, in the order of their random streams.
_AUDIT_SUITES = ("theorem1_forward", "theorem2_forward", "id_monotonicity", "ic_monotonicity")


def _audit_suites(modes: int, trials: int, seed: int):
    """Randomized theorem/monotonicity audits; yields counterexamples."""
    spawned = np.random.SeedSequence(seed).spawn(len(_AUDIT_SUITES))
    suites = zip(_AUDIT_SUITES, map(np.random.default_rng, spawned))

    # Forward direction: real superchannel x real channel -> real channel.
    name, rng = next(suites)
    for _ in range(trials):
        flag = "real-eq8" if rng.uniform() < 0.5 else "real-eq9"
        branch = "completely-real" if rng.uniform() < 0.5 else "covariant-real"
        sup = sample_random_superchannel(modes, rng, flag)
        chan = sample_random_channel(modes, rng, branch)
        if not channel_realness(apply_superchannel(sup, chan)).is_real:
            yield (name, sup, chan)

    # Breaking superchannels produce real output from any input channel.
    name, rng = next(suites)
    for _ in range(trials):
        sup = sample_random_superchannel(modes, rng, "real-eq8")
        chan = sample_random_channel(modes, rng, "any")
        if not channel_realness(apply_superchannel(sup, chan)).is_real:
            yield (name, sup, chan)

    # I_d monotonicity under real superchannels.
    name, rng = next(suites)
    for _ in range(trials):
        flag = "real-eq8" if rng.uniform() < 0.5 else "real-eq9"
        sup = sample_random_superchannel(modes, rng, flag)
        chan = sample_random_channel(modes, rng, "any")
        before = channel_measure_id(chan).value
        after = channel_measure_id(apply_superchannel(sup, chan)).value
        if after > before + 1e-9:
            yield (name, sup, chan)

    # I_c monotonicity under FO1 members.
    name, rng = next(suites)
    for _ in range(trials):
        sup = sample_random_superchannel(modes, rng, "real-eq9", unit_norm_a=True)
        chan = sample_random_channel(modes, rng, "any")
        before = channel_measure_ic(chan).value
        after = channel_measure_ic(apply_superchannel(sup, chan)).value
        if after > before + 1e-9:
            yield (name, sup, chan)


def cmd_audit(args):
    problem = (
        "trials must be >= 1" if args.trials < 1
        else f"modes must be in [1, {MAX_MODES}]" if not 1 <= args.modes <= MAX_MODES
        else "seed must be >= 0" if args.seed < 0
        else None
    )
    if problem is not None:
        raise _Exit(EXIT_USAGE, f"bad parameters: {problem}")
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
        "suites": list(_AUDIT_SUITES),
        "counterexamples": counterexamples,
        "passed": not counterexamples,
    }
    return EXIT_OK if not counterexamples else EXIT_COUNTEREXAMPLE, results, None


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
    p.add_argument("--which", choices=list(_MEASURES), required=True)
    p.add_argument("--restarts", type=int, default=SupSearchConfig.restarts)
    p.add_argument("--iterations", type=int, default=SupSearchConfig.iterations_per_restart)
    p.add_argument("--seed", type=int, default=SupSearchConfig.seed)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("check-super", help="superchannel structure diagnostics")
    p.add_argument("path")
    p.set_defaults(func=cmd_check_super)

    p = sub.add_parser("qbm", help="run a QBM imaginarity trajectory")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--regime", choices=qbm.REGIMES, default=qbm.QbmConfig.regime)
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
    start = time.perf_counter()
    try:
        code, results, source = args.func(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    report = {"command": args.command, "results": results}
    if source is not None:
        report["input"] = source
    if args.command != "audit":  # audit reports are byte-identical for a fixed seed
        report["wall_time_s"] = round(time.perf_counter() - start, 6)
    try:
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            for key, value in results.items():
                print(f"{key}: {value}")
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader has gone; what is still buffered goes nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


#: glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD (malloc.h) and the values
#: ``run`` sets, so that a freed chunk keeps its pages.  On a 2-CPU VM a
#: horizon-615.7 ``qbm`` took 42,668 minor faults by default and 6,536 with
#: them, at up to 1 MB more peak RSS; horizon 2e4 took 9.15 s and 5.79 s.
#: 32 MiB is the ceiling of glibc's own sliding map threshold.
_MALLOC_SETTINGS = ((-1, 256 << 20), (-3, 32 << 20))


def _keep_freed_pages() -> bool:
    # False without glibc, or when it refuses a setting (the rest are skipped)
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _MALLOC_SETTINGS)


def run():
    """The process entry: see the module docstring."""
    _keep_freed_pages()
    code = main()
    gc.freeze()  # the collection at exit then skips what main left
    sys.exit(code)


if __name__ == "__main__":
    run()
