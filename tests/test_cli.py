import dataclasses
import json

import numpy as np
import pytest

from gaussimag import cli
from gaussimag.gaussian import (
    GaussianChannel,
    GaussianSuperchannel,
    sample_random_superchannel,
    to_document,
)


def write_doc(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(to_document(obj)))
    return str(path)


@pytest.fixture
def amplifying_doc(tmp_path):
    c = GaussianChannel.amplifying(1, tau=2.0, d=np.array([0.5, 1.5]))
    return write_doc(tmp_path, "amp.json", c)


@pytest.fixture
def invalid_channel_doc(tmp_path):
    c = GaussianChannel.identity()
    c.T = 2.0 * np.eye(2)
    c.N = np.zeros((2, 2))
    return write_doc(tmp_path, "bad.json", c)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_ok(amplifying_doc, capsys):
    assert cli.main(["validate", amplifying_doc]) == cli.EXIT_OK
    assert "valid: True" in capsys.readouterr().out


def test_validate_invalid(invalid_channel_doc, capsys):
    assert cli.main(["--json", "validate", invalid_channel_doc]) == cli.EXIT_INVALID
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["valid"] is False
    assert report["results"]["violated_constraint"] == "N+iDelta-iTDeltaT^T"
    assert len(report["input"]["sha256"]) == 64


def test_validate_malformed(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert cli.main(["validate", str(path)]) == cli.EXIT_USAGE
    path.write_text('{"kind": "nonsense"}')
    assert cli.main(["validate", str(path)]) == cli.EXIT_USAGE
    assert cli.main(["validate", str(tmp_path / "missing.json")]) == cli.EXIT_USAGE


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def test_measure_ic(amplifying_doc, capsys):
    assert cli.main(["--json", "measure", amplifying_doc, "--which", "ic"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["value"] == pytest.approx(1.5, abs=1e-12)
    assert report["results"]["breakdown"]["displacement"] == pytest.approx(1.5)


def test_measure_is_with_budget(amplifying_doc, capsys):
    code = cli.main([
        "--json", "measure", amplifying_doc, "--which", "is",
        "--restarts", "2", "--iterations", "10", "--seed", "3",
    ])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["value"] == pytest.approx(1.0, abs=1e-9)
    search = report["results"]["search"]
    assert search["restarts"] == 2
    assert search["objective_evaluations"] == 1 + 2 * (1 + 10)
    assert 0 <= search["accepted_moves"] <= 2 * 10
    assert search["winning_restart"] in (None, 0, 1)


def test_measure_kind_mismatch(amplifying_doc, tmp_path, capsys):
    assert cli.main(["measure", amplifying_doc, "--which", "ign"]) == cli.EXIT_USAGE
    sup_doc = write_doc(tmp_path, "sup.json", GaussianSuperchannel.identity())
    assert cli.main(["measure", sup_doc, "--which", "ic"]) == cli.EXIT_USAGE


def test_measure_rejects_invalid_object(invalid_channel_doc):
    assert cli.main(["measure", invalid_channel_doc, "--which", "ic"]) == cli.EXIT_INVALID


@pytest.mark.filterwarnings("error")  # numpy warnings would be extra stderr lines
@pytest.mark.parametrize(
    "doc,which",
    [
        # valid, but det(N) overflows and inf / inf gives NaN
        ({"kind": "channel", "modes": 1, "T": [[0.5, 0.0], [0.0, 0.5]],
          "N": [[1e307, 0.0], [0.0, 1e307]], "d": [0.0, 0.0]}, "is"),
        ({"kind": "state", "modes": 1, "displacement": [0.0, 0.0],
          "covariance": [[1e200, 0.0], [0.0, 1e200]]}, "ign"),
    ],
)
def test_measure_non_finite_value_is_compute_error(tmp_path, capsys, doc, which):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["--json", "measure", str(path), "--which", which,
                     "--restarts", "2", "--iterations", "4"])
    assert code == cli.EXIT_COMPUTE
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, f"computation failed: measure '{which}' is not finite (nan)")


@pytest.mark.filterwarnings("error")  # numpy warnings would be extra stderr lines
def test_measure_search_overflow_is_compute_error(tmp_path, capsys):
    # valid (N dominates T Delta T^T), but T nu T^T overflows for nu up to 50
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "channel", "modes": 1,
                                "T": [[2e153, 0.0], [0.0, 2e153]],
                                "N": [[5e306, 0.0], [0.0, 5e306]], "d": [0.0, 0.0]}))
    assert cli.main(["validate", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["measure", str(path), "--which", "is"]) == cli.EXIT_COMPUTE
    assert_one_line(capsys.readouterr().err, "computation failed: measure 'is': search iterate")


@pytest.mark.filterwarnings("error")  # numpy warnings would be extra stderr lines
@pytest.mark.parametrize(
    "argv,doc",
    [
        (["validate"], {"kind": "channel", "modes": 1, "T": [[1e160, 0.0], [0.0, 1e160]],
                        "N": [[1.0, 0.0], [0.0, 1.0]], "d": [0.0, 0.0]}),
        (["measure", "--which", "ic"], {"kind": "channel", "modes": 1,
                                        "T": [[1e160, 0.0], [0.0, 1e160]],
                                        "N": [[1.0, 0.0], [0.0, 1.0]], "d": [0.0, 0.0]}),
        (["check-super"], {"kind": "superchannel", "modes": 1,
                           "A": [[1e160, 0.0], [0.0, 1e160]], "O": [[1.0, 0.0], [0.0, 1.0]],
                           "Y": [[1.0, 0.0], [0.0, 1.0]], "d": [0.0, 0.0]}),
    ],
)
def test_physicality_form_overflow_is_compute_error(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([argv[0], str(path), *argv[1:]]) == cli.EXIT_COMPUTE
    assert_one_line(capsys.readouterr().err,
                    "computation failed: physicality form overflows")


# ---------------------------------------------------------------------------
# check-super
# ---------------------------------------------------------------------------

def test_check_super_identity(tmp_path, capsys):
    doc = write_doc(tmp_path, "ident.json", GaussianSuperchannel.identity())
    assert cli.main(["--json", "check-super", doc]) == cli.EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["isReal"] is True
    assert results["isImaginarityBreaking"] is False
    assert results["inFO"] is True
    assert results["inFO1"] is True
    assert results["diagnostics"]["spectral_norm_A"] == pytest.approx(1.0)


def test_check_super_breaking_sample(tmp_path, capsys):
    sup = sample_random_superchannel(1, 11, "breaking")
    doc = write_doc(tmp_path, "breaking.json", sup)
    assert cli.main(["--json", "check-super", doc]) == cli.EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["isImaginarityBreaking"] is True
    assert results["diagnostics"]["A_erases_momentum"] is True


def test_check_super_sector_preserving_sample(tmp_path, capsys):
    sup = sample_random_superchannel(2, 5, "real-eq9", unit_norm_a=True)
    doc = write_doc(tmp_path, "eq9.json", sup)
    assert cli.main(["--json", "check-super", doc]) == cli.EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["diagnostics"] == {
        "momentum_pattern_dbar_Y": True,
        "A_erases_momentum": False,
        "A_O_sector_preserving": True,
        "spectral_norm_A": pytest.approx(1.0),
    }
    assert [results[k] for k in ("isReal", "isImaginarityBreaking", "inFO", "inFO1")] == [
        True, False, True, True,
    ]


def test_check_super_wrong_kind(amplifying_doc):
    assert cli.main(["check-super", amplifying_doc]) == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# qbm
# ---------------------------------------------------------------------------

def test_qbm_writes_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = cli.main([
        "--json", "qbm", "--alpha", "0.03", "--x", "0.5", "--theta", "100",
        "--horizon", "5", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["rows"] == 501
    assert 0.0 <= report["results"]["cross_check_error"] <= 1e-8
    assert 0.0 <= report["results"]["wbar_asymmetry"] <= 1e-8
    keys = list(report["results"])
    assert keys.index("wbar_asymmetry") == keys.index("cross_check_error") + 1
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,Ic,Gamma,N12,term_T21,term_T12T22"
    assert len(lines) == 502


def test_qbm_window_summary(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = cli.main([
        "--json", "qbm", "--alpha", "0.03", "--x", "0.5", "--theta", "100",
        "--horizon", "20", "--step", "0.02", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "window_mean_Ic" in report["results"]
    assert report["results"]["window_mean_Ic"] > 0


def test_qbm_bad_parameters(tmp_path):
    base = ["qbm", "--alpha", "0.03", "--x", "0.5", "--theta", "100",
            "--out", str(tmp_path / "t.csv")]
    assert cli.main(base + ["--horizon", "0"]) == cli.EXIT_USAGE
    assert cli.main(base + ["--horizon", "5", "--step", "-1"]) == cli.EXIT_USAGE
    assert cli.main([
        "qbm", "--alpha", "-1", "--x", "0.5", "--theta", "100",
        "--horizon", "5", "--out", str(tmp_path / "t.csv"),
    ]) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "extra",
    [
        ["--horizon", "nan"],
        ["--horizon", "inf"],
        ["--horizon", "5", "--step", "nan"],
        ["--horizon", "5", "--step", "inf"],
        ["--horizon", "5", "--alpha", "inf"],
        ["--horizon", "5", "--theta", "nan"],
    ],
)
def test_qbm_non_finite_input_is_usage_error(tmp_path, capsys, extra):
    base = ["qbm", "--alpha", "0.03", "--x", "0.5", "--theta", "100",
            "--out", str(tmp_path / "t.csv")]
    assert cli.main(base + extra) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--which", "is", "--restarts", "-1"],
        ["--which", "is", "--iterations", "-3"],
        ["--which", "is", "--seed", "-1"],
    ],
)
def test_measure_bad_search_parameters_are_usage_errors(amplifying_doc, capsys, argv):
    assert cli.main(["measure", amplifying_doc, *argv]) == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "bad parameters:")


@pytest.mark.parametrize(
    "argv",
    [["--modes", "0"], ["--modes", "65"], ["--seed", "-4"]],
)
def test_audit_bad_parameters_are_usage_errors(capsys, argv):
    assert cli.main(["audit", "--trials", "5", *argv]) == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "bad parameters:")


def test_qbm_non_finite_channel_is_compute_error(tmp_path, capsys, monkeypatch):
    from gaussimag import qbm

    original = qbm.solve_qbm

    def corrupted(*args):
        sol = original(*args)
        wbar = sol.wbar.copy()
        wbar[1, 1, 3] = np.nan
        return dataclasses.replace(sol, wbar=wbar)

    monkeypatch.setattr(qbm, "solve_qbm", corrupted)
    code = cli.main([
        "qbm", "--alpha", "0.03", "--x", "0.5", "--theta", "100",
        "--horizon", "5", "--out", str(tmp_path / "t.csv"),
    ])
    assert code == cli.EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith("computation failed: non-finite")
    assert len(err.strip().splitlines()) == 1


def test_qbm_asymmetric_noise_is_compute_error(tmp_path, capsys, monkeypatch):
    # Wbar[1, 0] = -3 Wbar[0, 1] passes the cross-check (|N12| is unchanged)
    from gaussimag import qbm

    original = qbm.solve_qbm

    def corrupted(*args):
        sol = original(*args)
        wbar = sol.wbar.copy()
        wbar[1, 0, 250] = -3.0 * wbar[0, 1, 250]
        return dataclasses.replace(sol, wbar=wbar)

    monkeypatch.setattr(qbm, "solve_qbm", corrupted)
    code = cli.main(QBM_BASE + ["--out", str(tmp_path / "t.csv")])
    assert code == cli.EXIT_COMPUTE
    assert_one_line(capsys.readouterr().err,
                    "computation failed: noise matrix asymmetry")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--alpha", "0.3", "--x", "0.5", "--horizon", "1e5", "--step", "0.5"],
    ["--alpha", "1", "--x", "0.5", "--horizon", "1e5", "--step", "0.5"],
    ["--alpha", "1", "--x", "0.9", "--horizon", "615.7"],
], ids=["alpha-0.3", "alpha-1-x-0.5", "alpha-1-x-0.9"])
def test_qbm_past_the_exp_gamma_overflow(tmp_path, capsys, argv):
    # e^Gamma times the noise integrand overflows once Gamma nears 700, which
    # these grids pass (at tau ~ 9.1e3, 820 and 610)
    out = tmp_path / "t.csv"
    code = cli.main(["--json", "qbm", "--theta", "100", *argv, "--out", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["cross_check_error"] <= 1e-8
    assert report["results"]["wbar_asymmetry"] <= 1e-8
    last = np.array(out.read_text().splitlines()[-1].split(","), dtype=float)
    assert last[2] > 700.0 and np.all(np.isfinite(last))


QBM_BASE = ["qbm", "--alpha", "0.03", "--x", "0.5", "--theta", "100", "--horizon", "5"]


def assert_one_line(err, prefix):
    assert err.startswith(prefix)
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "alpha,theta,prefix",
    [
        ("1e200", "100", "bad parameters: alpha must be at most 1"),
        ("0.03", "1e300", "bad parameters: theta must be at most 1.11e+08 at alpha 0.03"),
    ],
)
def test_qbm_out_of_domain_parameter_is_usage_error(tmp_path, capsys, alpha, theta, prefix):
    code = cli.main(["qbm", "--alpha", alpha, "--x", "0.5", "--theta", theta,
                     "--horizon", "5", "--out", str(tmp_path / "t.csv")])
    assert code == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err, prefix)
    assert not (tmp_path / "t.csv").exists()


def test_qbm_low_temperature_theta_floor_is_usage_error(tmp_path, capsys):
    # b = 1 + 1/theta: exp(b/x) would overflow the closed forms at theta 1e-3
    code = cli.main(["qbm", "--regime", "low", "--alpha", "0.03", "--x", "0.5",
                     "--theta", "1e-3", "--horizon", "5", "--out", str(tmp_path / "t.csv")])
    assert code == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err,
                    "bad parameters: theta must be at least 0.00287 at x 0.5 in the low regime")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("regime, x, message", [
    ("high", "0.0015", "x must be at least 0.00286 in the high regime (2/x <= 700), got 0.0015"),
    ("high", "1e-3", "x must be at least 0.00286 in the high regime"),
    ("low", "1e-3", "x must exceed 0.00143 in the low regime ((1 + 1/theta)/x <= 700), got 0.001"),
], ids=["high-0.0015", "high-1e-3", "low-1e-3"])
def test_qbm_small_x_is_usage_error(tmp_path, capsys, regime, x, message):
    # exp(2/x) (high T) or exp((1 + 1/theta)/x) (low T) would overflow
    code = cli.main(["qbm", "--regime", regime, "--alpha", "0.03", "--x", x, "--theta", "100",
                     "--horizon", "5", "--out", str(tmp_path / "t.csv")])
    assert code == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err, f"bad parameters: {message}")
    assert not (tmp_path / "t.csv").exists()


def test_qbm_non_finite_closed_form_is_compute_error(tmp_path, capsys, monkeypatch):
    # x = 1e-300 overflows e^{1/x}; with the config's exponent bound lifted,
    # the closed-form check catches it
    from gaussimag import qbm

    monkeypatch.setattr(qbm, "LOW_T_EXPONENT_MAX", np.inf)
    code = cli.main(["qbm", "--alpha", "0.03", "--x", "1e-300", "--theta", "100",
                     "--horizon", "5", "--out", str(tmp_path / "t.csv")])
    assert code == cli.EXIT_COMPUTE
    assert_one_line(capsys.readouterr().err,
                    "computation failed: gamma: non-finite closed-form value")
    assert not (tmp_path / "t.csv").exists()


def test_qbm_grid_too_large_is_usage_error(tmp_path, capsys):
    code = cli.main(QBM_BASE + ["--step", "1e-300", "--out", str(tmp_path / "t.csv")])
    assert code == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "bad parameters: step 1e-300 is too small")


def test_qbm_memory_error_is_compute_error(tmp_path, capsys, monkeypatch):
    from gaussimag import qbm

    def no_memory(horizon, step):
        raise MemoryError("Unable to allocate the grid")

    monkeypatch.setattr(qbm, "_make_grid", no_memory)
    code = cli.main(QBM_BASE + ["--out", str(tmp_path / "t.csv")])
    assert code == cli.EXIT_COMPUTE
    assert_one_line(capsys.readouterr().err, "computation failed: Unable to allocate")


def test_qbm_unwritable_output_is_usage_error(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "x.csv"
    code = cli.main(QBM_BASE + ["--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "cannot write output:")


@pytest.mark.parametrize("target", ["no-such-dir/x.csv", "a-directory"])
def test_qbm_unwritable_output_fails_before_computing(tmp_path, capsys, monkeypatch, target):
    from gaussimag import qbm

    def never(*args, **kwargs):
        raise AssertionError("trajectory computed for an unwritable --out")

    monkeypatch.setattr(qbm, "imaginarity_trajectory", never)
    (tmp_path / "a-directory").mkdir()
    code = cli.main(QBM_BASE + ["--out", str(tmp_path / target)])
    assert code == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "cannot write output:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]


def test_qbm_existing_output_is_overwritten(tmp_path):
    out = tmp_path / "t.csv"
    out.write_text("stale\n")
    code = cli.main(["qbm", "--alpha", "0.03", "--x", "0.5", "--theta", "100",
                     "--horizon", "0.05", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_text().splitlines()[0] == "tau,Ic,Gamma,N12,term_T21,term_T12T22"


@pytest.mark.parametrize("horizon", ["0.005", "0.01"])
def test_qbm_two_point_grid(tmp_path, horizon):
    # horizon <= step: the grid is [0, horizon] and Gamma uses the trapezoid rule
    out = tmp_path / "t.csv"
    code = cli.main(["qbm", "--alpha", "0.03", "--x", "0.5", "--theta", "100",
                     "--horizon", horizon, "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0,0,")
    assert lines[2].startswith(horizon + ",")


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_passes(capsys):
    code = cli.main(["--json", "audit", "--modes", "1", "--trials", "50", "--seed", "7"])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["passed"] is True
    assert report["results"]["counterexamples"] == []


def test_audit_zero_trials(capsys):
    assert cli.main(["audit", "--trials", "0"]) == cli.EXIT_USAGE


def test_audit_deterministic_report(capsys):
    args = ["--json", "audit", "--modes", "2", "--trials", "25", "--seed", "13"]
    assert cli.main(args) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert cli.main(args) == cli.EXIT_OK
    second = capsys.readouterr().out
    assert first == second
