import ast
import builtins
import gc
import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gaussimag import cli
from gaussimag.gaussian import (
    GaussianChannel,
    GaussianState,
    GaussianSuperchannel,
    from_document,
    sample_random_channel,
    sample_random_state,
    sample_random_superchannel,
    to_document,
)
from test_gaussian import squeezer


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
    for modes in (1.7, "1", True):  # not truncated or converted to an int
        path.write_text(json.dumps({"kind": "channel", "modes": modes, "T": np.eye(2).tolist(),
                                    "N": np.eye(2).tolist(), "d": [0.0, 0.0]}))
        assert cli.main(["validate", str(path)]) == cli.EXIT_USAGE


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


@pytest.mark.parametrize("which, obj", [
    *((which, chan) for which in ("ic", "id", "is") for chan in (
        GaussianChannel.amplifying(1, tau=2.0, d=np.array([0.5, 1.5])),
        sample_random_channel(2, 3),
        sample_random_channel(3, 4, "covariant-real"),
    )),
    *(("ign", state) for state in (
        GaussianState.vacuum(1), sample_random_state(2, 5), sample_random_state(3, 6, real=True),
    )),
])
def test_measure_value_is_the_sum_of_its_breakdown(tmp_path, capsys, which, obj):
    doc = write_doc(tmp_path, "doc.json", obj)
    assert cli.main(["--json", "measure", doc, "--which", which]) == cli.EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results["breakdown"]) == (4 if which in ("ic", "id") else 2)
    assert results["value"] == sum(results["breakdown"].values())


@pytest.mark.parametrize("t, n, expected", [
    # T12 and T22 are 1e-6: neither completely nor covariant real
    ([[1.0, 1e-6], [0.0, 1e-6]], [[2.0, 0.0], [0.0, 2.0]], 1.0),
    # N12 is 1e-11, below the pattern threshold 1e-10 * 2: real
    ([[1.0, 0.0], [0.0, 1.0]], [[2.0, 1e-11], [1e-11, 2.0]], 0.0),
], ids=["not-real", "real"])
def test_measure_id_reads_the_realness_pattern(tmp_path, capsys, t, n, expected):
    doc = write_doc(tmp_path, "doc.json", GaussianChannel(1, t, n, np.zeros(2)))
    assert cli.main(["validate", doc]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["--json", "measure", doc, "--which", "id"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["value"] == expected


def test_measure_memory_error_is_compute_error(amplifying_doc, capsys, monkeypatch):
    def no_memory(c, cfg):
        raise MemoryError("Unable to allocate the search stacks")

    cls, kind, _ = cli._MEASURES["is"]
    monkeypatch.setitem(cli._MEASURES, "is", (cls, kind, no_memory))
    assert cli.main(["--json", "measure", amplifying_doc, "--which", "is"]) == cli.EXIT_COMPUTE
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, "computation failed: measure 'is': Unable to allocate")


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


def test_pure_squeezer_past_the_floor_is_invalid(tmp_path, capsys):
    # round-off in T Delta T^T, not overflow: ||T|| is only 2.2e4
    doc = write_doc(tmp_path, "squeezer.json", squeezer(10.0))
    assert cli.main(["--json", "validate", doc]) == cli.EXIT_INVALID
    out, err = capsys.readouterr()
    assert json.loads(out)["results"]["violated_constraint"] == "N+iDelta-iTDeltaT^T"
    assert err == ""


HUGE_INT = int("9" * 401)  # finite in JSON, too large for a float


@pytest.mark.parametrize("doc", [
    {"kind": "channel", "modes": 1, "T": [[HUGE_INT, 0], [0, 1]], "N": [[1, 0], [0, 1]],
     "d": [0, 0]},
    {"kind": "channel", "modes": 1, "T": [[1, 0], [0, 1]], "N": [[1, 0], [0, 1]],
     "d": [HUGE_INT, 0]},
    {"kind": "state", "modes": 1, "displacement": [0, HUGE_INT],
     "covariance": [[1, 0], [0, 1]]},
], ids=["T", "d", "displacement"])
@pytest.mark.parametrize("argv", [["validate"], ["measure", "--which", "ic"], ["check-super"]],
                         ids=["validate", "measure", "check-super"])
def test_integer_too_large_for_a_float_is_parse_error(tmp_path, capsys, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([argv[0], str(path), *argv[1:]]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, f"parse error: malformed {doc['kind']} document: int too large")


@pytest.mark.parametrize("doc,field", [
    ({"kind": "state", "modes": 1, "displacement": [0, 0],
      "covariance": [[1, 0], [0, float("nan")]]}, "covariance"),
    ({"kind": "channel", "modes": 1, "T": [[float("inf"), 0], [0, 1]], "N": [[1, 0], [0, 1]],
      "d": [0, 0]}, "T"),
    ({"kind": "superchannel", "modes": 1, "A": [[1, 0], [0, 1]], "O": [[1, 0], [0, 1]],
      "Y": [[0, 0], [0, 0]], "d": [0, float("-inf")]}, "dbar"),
], ids=["state-NaN", "channel-Infinity", "superchannel-minus-Infinity"])
@pytest.mark.parametrize("argv", [["validate"], ["measure", "--which", "ic"], ["check-super"]],
                         ids=["validate", "measure", "check-super"])
def test_non_finite_document_entry_is_parse_error(tmp_path, capsys, argv, doc, field):
    # Python's json reads the literals NaN, Infinity and -Infinity as floats
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert any(word in path.read_text() for word in ("NaN", "Infinity"))
    assert cli.main([argv[0], str(path), *argv[1:]]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"parse error: malformed {doc['kind']} document: "
                   f"{field} contains non-finite entries\n")


@pytest.mark.parametrize("modes", [0, 65])
@pytest.mark.parametrize("argv,kind", [
    (["validate"], "channel"),
    (["measure", "--which", "ic"], "channel"),
    (["check-super"], "superchannel"),
], ids=["validate", "measure", "check-super"])
def test_mode_count_out_of_range_is_parse_error(tmp_path, capsys, argv, kind, modes):
    # matrices of the stated size, so only the mode count is out of range
    eye, zeros = np.eye(2 * modes).tolist(), [0.0] * (2 * modes)
    doc = {"kind": kind, "modes": modes, "d": zeros}
    doc.update({"T": eye, "N": eye} if kind == "channel" else {"A": eye, "O": eye, "Y": eye})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([argv[0], str(path), *argv[1:]]) == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err, f"parse error: malformed {kind} document: mode count")


@pytest.mark.parametrize("argv", [["validate"], ["measure", "--which", "ic"], ["check-super"]],
                         ids=["validate", "measure", "check-super"])
def test_document_nested_past_the_recursion_limit_is_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text('{"kind": "channel", "modes": 1, "T": ' + "[" * 100_000 + "]" * 100_000
                    + ', "N": [[1, 0], [0, 1]], "d": [0, 0]}')
    assert cli.main([argv[0], str(path), *argv[1:]]) == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "parse error: maximum recursion depth exceeded")


@pytest.mark.parametrize("head,line", [
    (b"", None),
    (b"\xef\xbb\xbf", "parse error: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                      "line 1 column 1 (char 0)"),
    (b"\xff", "parse error: 'utf-8' codec can't decode byte 0xff in position 0: "
              "invalid start byte"),
], ids=["plain", "utf-8-bom", "undecodable-byte"])
@pytest.mark.parametrize("argv,obj", [
    (["validate"], GaussianChannel.amplifying(1, tau=2.0)),
    (["measure", "--which", "ic"], GaussianChannel.amplifying(1, tau=2.0)),
    (["check-super"], GaussianSuperchannel.identity()),
], ids=["validate", "measure", "check-super"])
def test_document_commands_read_the_input_once(tmp_path, capsys, monkeypatch, argv, obj,
                                               head, line):
    path = tmp_path / "doc.json"
    path.write_bytes(head + json.dumps(to_document(obj)).encode())
    modes, real_open = [], builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file) == str(path):
            modes.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code = cli.main(["--json", argv[0], str(path), *argv[1:]])
    monkeypatch.undo()
    assert modes == ["rb"]
    out, err = capsys.readouterr()
    if line is None:
        assert code == cli.EXIT_OK
        assert json.loads(out)["input"] == {
            "path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    else:
        assert code == cli.EXIT_USAGE
        assert (out, err) == ("", line + "\n")


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
    sup = sample_random_superchannel(1, 11, "real-eq8")
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


@pytest.mark.parametrize("argv,kind,code,line", [
    (["measure", "--which", "ic"], "invalid channel", cli.EXIT_INVALID,
     "invalid object: N+iDelta-iTDeltaT^T"),
    (["measure", "--which", "ign"], "channel", cli.EXIT_USAGE,
     "measure 'ign' requires a state document"),
    (["measure", "--which", "ic"], "superchannel", cli.EXIT_USAGE,
     "measure 'ic' requires a channel document"),
    (["check-super"], "channel", cli.EXIT_USAGE, "check-super requires a superchannel document"),
    (["check-super"], "invalid superchannel", cli.EXIT_INVALID,
     "invalid superchannel: Y+iDelta-iADeltaA^T"),
], ids=["invalid-object", "ign-needs-state", "ic-needs-channel", "check-super-needs-superchannel",
        "invalid-superchannel"])
def test_document_command_failure_lines(tmp_path, capsys, argv, kind, code, line):
    eye, zeros = np.eye(2), np.zeros((2, 2))
    obj = {
        "channel": GaussianChannel.amplifying(1, tau=2.0),
        "invalid channel": GaussianChannel(1, 2.0 * eye, zeros, np.zeros(2)),
        "superchannel": GaussianSuperchannel.identity(),
        "invalid superchannel": GaussianSuperchannel(1, 2.0 * eye, eye, zeros, np.zeros(2)),
    }[kind]
    doc = write_doc(tmp_path, "doc.json", obj)
    assert cli.main([argv[0], doc, *argv[1:]]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_line(err, line)
    assert err == line + "\n"


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
        ["--which", "is", "--restarts", "100000000000000000000"],
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

    original = qbm._formula

    def corrupted(x, tau, big_gamma, wbar):
        # horizon 5 is one chunk, whose Wbar view the walk hands here first
        wbar[1, 1, 3] = np.nan
        return original(x, tau, big_gamma, wbar)

    monkeypatch.setattr(qbm, "_formula", corrupted)
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

    original = qbm._formula

    def corrupted(x, tau, big_gamma, wbar):
        # horizon 5 is one chunk, whose Wbar view the walk hands here first
        wbar[1, 0, 250] = -3.0 * wbar[0, 1, 250]
        return original(x, tau, big_gamma, wbar)

    monkeypatch.setattr(qbm, "_formula", corrupted)
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


@pytest.mark.parametrize("target", ["no-such-dir/x.csv", "a-directory", "", "no-such-dir/"],
                         ids=["no-such-dir/x.csv", "a-directory", "empty", "trailing-separator"])
def test_qbm_unwritable_output_fails_before_computing(tmp_path, capsys, monkeypatch, target):
    from gaussimag import qbm

    def never(*args, **kwargs):
        raise AssertionError("trajectory computed for an unwritable --out")

    monkeypatch.setattr(qbm, "imaginarity_trajectory", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-directory").mkdir()
    code = cli.main(QBM_BASE + ["--out", target])
    assert code == cli.EXIT_USAGE
    assert_one_line(capsys.readouterr().err, "cannot write output:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_qbm_write_that_fails_after_the_walk_is_usage_error(capsys):
    # /dev/full passes the check before computing; only the write finds it full
    code = cli.main(QBM_BASE + ["--out", "/dev/full"])
    assert code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("argv", [["--json", "validate", "DOC"],
                                  ["measure", "DOC", "--which", "ic"]],
                         ids=["json-validate", "text-measure"])
def test_closed_stdout_is_one_line_and_exit_1(amplifying_doc, argv):
    # stdout is a pipe whose reader has gone, as under ``| head`` once it has
    # its lines: one stderr line, no traceback, and nothing more at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    package_root = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gaussimag.cli",
             *(amplifying_doc if arg == "DOC" else arg for arg in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stderr == "cannot write output: [Errno 32] Broken pipe\n"


# ---------------------------------------------------------------------------
# the process entry
# ---------------------------------------------------------------------------

def run_child(tmp_path, *args):
    """``python *args`` with the package on its path and ``tmp_path`` as its
    directory, reaped with os.wait4: (exit code, stdout, stderr, rusage)."""
    package_root = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out, err = tmp_path / "child.out", tmp_path / "child.err"
    with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
        proc = subprocess.Popen([sys.executable, *args], stdout=out_fh, stderr=err_fh,
                                cwd=tmp_path, env={**os.environ, "PYTHONPATH": path})
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.read_text(), err.read_text(), usage


OVERFLOWING_CHANNEL = {"kind": "channel", "modes": 1, "T": [[1e160, 0.0], [0.0, 1e160]],
                       "N": [[1.0, 0.0], [0.0, 1.0]], "d": [0.0, 0.0]}


@pytest.mark.parametrize("argv,code", [
    (["validate", "{amp}"], cli.EXIT_OK),
    (["validate", "{missing}"], cli.EXIT_USAGE),
    (["validate", "{bad}"], cli.EXIT_INVALID),
    (["measure", "{overflow}", "--which", "ic"], cli.EXIT_COMPUTE),
], ids=["ok", "usage", "invalid", "compute"])
def test_module_entry_gives_the_code_and_output_of_main(tmp_path, capsys, amplifying_doc,
                                                       invalid_channel_doc, argv, code):
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(OVERFLOWING_CHANNEL))
    names = {"amp": amplifying_doc, "missing": str(tmp_path / "missing.json"),
             "bad": invalid_channel_doc, "overflow": str(overflow)}
    argv = [arg.format(**names) for arg in argv]
    assert cli.main(argv) == code
    want = capsys.readouterr()
    assert run_child(tmp_path, "-m", "gaussimag.cli", *argv)[:3] == (code, want.out, want.err)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's malloc")
def test_long_qbm_run_keeps_its_freed_pages(tmp_path):
    # glibc's default thresholds cost the horizon-615.7 run about 42,700
    # minor faults; with the ones run() sets it takes about 6,500
    code, out, _, usage = run_child(
        tmp_path, "-m", "gaussimag.cli", "--json", "qbm", "--alpha", "0.03", "--x", "0.5",
        "--theta", "100", "--horizon", "615.7", "--out", "t.csv")
    assert code == cli.EXIT_OK
    assert json.loads(out)["results"]["rows"] == 61571
    assert usage.ru_minflt < 15_000
    assert run_child(tmp_path, "-c", "from gaussimag import cli; "
                     "print(cli._keep_freed_pages())")[:2] == (0, "True\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_importing_the_cli_starts_one_blas_thread_unless_told_otherwise(tmp_path, monkeypatch):
    threads = ("status = open('/proc/self/status').read().splitlines()\n"
               "print([line.split()[1] for line in status if line.startswith('Threads:')][0])\n")
    # the variable is gone again once numpy has loaded, so a grandchild started
    # after the import has the threads of a child that never imported the CLI
    numpy_child = "import numpy\n" + threads
    script = ("import os, subprocess, sys, gaussimag.cli\n" + threads
              + "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
              + f"subprocess.run([sys.executable, '-c', {numpy_child!r}])\n")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    control = run_child(tmp_path, "-c", numpy_child)
    assert control[0] == 0 and control[1].strip().isdigit()
    assert run_child(tmp_path, "-c", script)[:3] == (0, f"1\nNone\n{control[1]}", "")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # a count the user set wins
    code, out, err, _ = run_child(tmp_path, "-c", script)
    assert (code, out.splitlines()[1], err) == (0, "2", "")


def test_importing_the_cli_freezes_nothing():
    assert gc.get_freeze_count() == 0


def test_run_without_mallopt_still_runs_and_freezes_at_exit(tmp_path, amplifying_doc):
    script = f"""
import atexit, ctypes, gc, sys
ctypes.CDLL = lambda name: object()  # a C library without mallopt
from gaussimag import cli
assert not cli._keep_freed_pages()
atexit.register(lambda: sys.stderr.write(f"frozen {{gc.get_freeze_count() > 0}}\\n"))
sys.argv = ["gaussimag", "validate", {amplifying_doc!r}]
cli.run()
"""
    assert run_child(tmp_path, "-c", script)[:3] == (
        cli.EXIT_OK, "kind: GaussianChannel\nvalid: True\n", "frozen True\n")


def test_installed_command_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("not a source checkout")
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"gaussimag": "gaussimag.cli:run"}


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


def test_qbm_one_node_grid(tmp_path):
    # a horizon below 1e-12 gives the grid [0], where the channel is the identity
    out = tmp_path / "t.csv"
    code = cli.main(["qbm", "--alpha", "0.03", "--x", "0.5", "--theta", "100",
                     "--horizon", "1e-13", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_text().splitlines()[1:] == ["0,0,0,0,0,0"]


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_passes(capsys):
    code = cli.main(["--json", "audit", "--modes", "1", "--trials", "50", "--seed", "7"])
    assert code == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["passed"] is True
    assert report["results"]["counterexamples"] == []


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
def test_audit_counterexamples_name_their_suite_and_parse_back(capsys, monkeypatch, json_flag):
    # an I_d that grows with every call makes each id_monotonicity trial a
    # counterexample: after > before
    calls = itertools.count()
    monkeypatch.setattr(cli, "channel_measure_id",
                        lambda chan: SimpleNamespace(value=float(next(calls))))
    code = cli.main([*json_flag, "audit", "--modes", "2", "--trials", "3", "--seed", "5"])
    assert code == cli.EXIT_COUNTEREXAMPLE
    out = capsys.readouterr().out
    if json_flag:
        results = json.loads(out)["results"]
    else:
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        results = {key: ast.literal_eval(value) for key, value in lines.items()}
    assert results["passed"] is False
    found = results["counterexamples"]
    assert [c["suite"] for c in found] == 3 * ["id_monotonicity"]
    assert all(c["suite"] in results["suites"] for c in found)
    for c in found:
        sup, chan = from_document(c["superchannel"]), from_document(c["channel"])
        assert isinstance(sup, GaussianSuperchannel) and sup.modes == 2
        assert isinstance(chan, GaussianChannel) and chan.modes == 2
        assert to_document(sup) == c["superchannel"] and to_document(chan) == c["channel"]


def test_audit_reports_every_suite_that_yields_counterexamples(capsys, monkeypatch):
    # checks that always fail make every trial of every suite a
    # counterexample; the suites found are exactly the suites reported
    calls = itertools.count()
    monkeypatch.setattr(cli, "channel_realness", lambda chan: SimpleNamespace(is_real=False))
    for measure in ("channel_measure_id", "channel_measure_ic"):
        monkeypatch.setattr(cli, measure, lambda chan: SimpleNamespace(value=float(next(calls))))
    code = cli.main(["--json", "audit", "--modes", "1", "--trials", "2", "--seed", "3"])
    assert code == cli.EXIT_COUNTEREXAMPLE
    results = json.loads(capsys.readouterr().out)["results"]
    found = [c["suite"] for c in results["counterexamples"]]
    assert len(found) == 2 * len(results["suites"])
    assert set(found) == set(results["suites"])


def test_audit_zero_trials(capsys):
    assert cli.main(["audit", "--trials", "0"]) == cli.EXIT_USAGE


def test_audit_deterministic_report(capsys):
    args = ["--json", "audit", "--modes", "2", "--trials", "25", "--seed", "13"]
    assert cli.main(args) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert cli.main(args) == cli.EXIT_OK
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,keys", [
    (["validate", "{doc}"], ["command", "results", "input", "wall_time_s"]),
    (["measure", "{doc}", "--which", "id"], ["command", "results", "input", "wall_time_s"]),
    (["check-super", "{sup}"], ["command", "results", "input", "wall_time_s"]),
    (QBM_BASE + ["--out", "{csv}"], ["command", "results", "wall_time_s"]),
    (["audit", "--trials", "3"], ["command", "results"]),
], ids=["validate", "measure", "check-super", "qbm", "audit"])
def test_report_shape(tmp_path, capsys, argv, keys):
    names = {"doc": write_doc(tmp_path, "amp.json", GaussianChannel.amplifying(1, tau=2.0)),
             "sup": write_doc(tmp_path, "sup.json", GaussianSuperchannel.identity()),
             "csv": str(tmp_path / "t.csv")}
    argv = [arg.format(**names) for arg in argv]
    assert cli.main(["--json", *argv]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert list(report) == keys
    assert report["command"] == argv[0]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        f"{key}: {value}" for key, value in report["results"].items()]
