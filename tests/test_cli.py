"""Command-line interface tests.

Most cases drive ``fueterlab.cli.main`` in-process; one subprocess smoke
test covers the installed entry point.  Values with a leading minus sign
must use the ``--flag=value`` form, which is what these tests (and the
README examples) do.
"""

import json
import shutil
import subprocess
import sys

import pytest

from fueterlab.cli import main

# three nodes per axis, placed so no node hits the atanh ridges of the
# varrho/sigma witnesses (alpha = 0 or +-pi/2 together with beta = pi/2)
COARSE_GRID = "--grid=-1,1,0.5,1.5,-2.2,2.4,0.5,2.5,3"


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return rc, doc, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_rho(capsys):
    rc, doc, _ = run_cli(capsys, ["classify", "rho", COARSE_GRID])
    assert rc == 0
    assert doc["command"] == "classify"
    rep = doc["report"]
    assert rep["function"] == "rho"
    assert rep["class_I"]["verdict"] == "pass"
    assert rep["class_II"]["verdict"] == "pass"
    assert rep["class_III"]["verdict"] == "fail"
    assert rep["regular"]["verdict"] == "fail"
    assert rep["centrality"]["verdict"] == "not-central"
    assert rep["inclusion_consistent"] is True
    assert "timestamp" in doc


def test_classify_composite_spec(capsys):
    rc, doc, _ = run_cli(capsys, ["classify", "product:rho*identity", COARSE_GRID])
    assert rc == 0
    assert doc["report"]["class_II"]["verdict"] == "pass"
    assert doc["report"]["class_III"]["verdict"] == "fail"


def test_classify_writes_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, doc, _ = run_cli(capsys, ["classify", "pow:0", COARSE_GRID,
                                  "--out", str(out)])
    assert rc == 0
    assert doc is None  # everything went to the file
    saved = json.loads(out.read_text())
    assert saved["report"]["regular"]["verdict"] == "pass"


def test_classify_is_deterministic_modulo_timestamp(capsys):
    _, first, _ = run_cli(capsys, ["classify", "sigma", COARSE_GRID])
    _, second, _ = run_cli(capsys, ["classify", "sigma", COARSE_GRID])
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


def test_classify_unknown_spec_exits_2(capsys):
    rc, doc, err = run_cli(capsys, ["classify", "no-such-function"])
    assert rc == 2
    assert doc is None
    assert "error:" in err


def test_classify_bad_grid_exits_2(capsys):
    rc, _, err = run_cli(capsys, ["classify", "rho", "--grid", "1,2,3"])
    assert rc == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# laurent


def test_laurent_squaring_defaults(capsys):
    rc, doc, _ = run_cli(capsys, ["laurent", "pow:2", "--center", "0,1",
                                  "--radii", "0.2,0.6", "--n-range=-2,3",
                                  "--quad-points", "64"])
    assert rc == 0
    coeffs = doc["series"]["coefficients"]
    a0 = coeffs["0"][0][0]
    a1 = coeffs["1"][0][0]
    a2 = coeffs["2"][0][0]
    assert a0[0] == pytest.approx(-1.0, abs=1e-9)
    assert abs(a0[1]) < 1e-9
    assert a1[1] == pytest.approx(2.0, abs=1e-9)
    assert a2[0] == pytest.approx(1.0, abs=1e-9)
    assert doc["max_reconstruction_error"] < 1e-8


def test_laurent_identity_shifted_center(capsys):
    rc, doc, _ = run_cli(capsys, ["laurent", "identity", "--center", "1,2",
                                  "--radii", "0.5,1.0", "--n-range=-1,2",
                                  "--quad-points", "32"])
    assert rc == 0
    coeffs = doc["series"]["coefficients"]
    assert coeffs["0"][0][0] == pytest.approx([1.0, 2.0], abs=1e-10)
    assert coeffs["1"][0][0] == pytest.approx([1.0, 0.0], abs=1e-10)


def test_laurent_probes_stay_inside_window(capsys):
    # with this center the chart round trip moved a probe placed on the
    # window corner just outside the window, and the command exited 2
    rc, doc, err = run_cli(capsys, ["laurent", "pow:2", "--center=0.993,1.909",
                                    "--radii=0.2,0.6"])
    assert rc == 0, err
    assert doc["max_reconstruction_error"] < 1e-8


def test_laurent_class_check(capsys):
    rc, doc, _ = run_cli(capsys, ["laurent", "rho", "--n-range=-2,2",
                                  "--quad-points", "64", "--check-class"])
    assert rc == 0
    checks = doc["class_check"]
    assert set(checks) == {"-2", "-1", "0", "1", "2"}
    for stats in checks.values():
        assert stats["verdict"] == "pass"


def test_laurent_class_check_fails_for_class_i_only(capsys):
    rc, doc, _ = run_cli(capsys, ["laurent", "x-over-r-iota", "--n-range=0,0",
                                  "--quad-points", "64", "--check-class"])
    assert rc == 1
    assert doc["class_check"]["0"]["verdict"] == "fail"


def test_laurent_invalid_region_exits_2(capsys):
    rc, _, err = run_cli(capsys, ["laurent", "pow:2", "--center", "0,0.5",
                                  "--radii", "0.2,0.6"])
    assert rc == 2
    assert "error:" in err


def test_laurent_malformed_center_exits_2(capsys):
    rc, _, err = run_cli(capsys, ["laurent", "pow:2", "--center", "zero,one"])
    assert rc == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify-props


def test_verify_props_coarse_grid(capsys):
    rc, doc, _ = run_cli(capsys, ["verify-props", COARSE_GRID])
    assert rc == 0
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 16
    names = [c["name"] for c in doc["checks"]]
    assert "operator-equivalence" in names
    assert "mirror-involution" in names
    for check in doc["checks"]:
        assert check["passed"] is True
        assert set(check) >= {"name", "passed", "max_residual", "tolerance"}


def test_verify_props_seed_does_not_change_verdicts(capsys):
    _, base, _ = run_cli(capsys, ["verify-props", COARSE_GRID, "--seed", "0"])
    _, other, _ = run_cli(capsys, ["verify-props", COARSE_GRID, "--seed", "1"])
    assert [c["passed"] for c in base["checks"]] == \
           [c["passed"] for c in other["checks"]]


def test_verify_props_reports_degradation_with_coarse_h(capsys):
    # a sloppy step size must degrade gracefully: valid JSON, exit 1
    rc, doc, _ = run_cli(capsys, ["verify-props", COARSE_GRID, "--h", "1e-2"])
    assert rc == 1
    assert doc["all_passed"] is False
    by_name = {c["name"]: c for c in doc["checks"]}
    # second-order convergence holds at any sane h
    assert by_name["convergence-order"]["passed"] is True


# ---------------------------------------------------------------------------
# entry points


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fueterlab.cli", "classify", "pow:0", COARSE_GRID],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["regular"]["verdict"] == "pass"


@pytest.mark.skipif(shutil.which("fueterlab") is None,
                    reason="console script not on PATH")
def test_console_script_subprocess():
    proc = subprocess.run(
        ["fueterlab", "classify", "pow:0", COARSE_GRID],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "classify"
