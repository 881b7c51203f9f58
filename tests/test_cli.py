"""Command-line interface tests.

Most cases drive ``fueterlab.cli.main`` in-process; one subprocess smoke
test covers the installed entry point.  A value with a leading minus sign
may follow its flag as the next word or in the ``--flag=value`` form.
"""

import json
import math
import shutil
import subprocess
import sys
import warnings

import pytest

import fueterlab
from fueterlab import cli
from fueterlab.cli import _config_from_args, build_parser, main
from fueterlab.diffops import DiffConfig

# three nodes per axis, placed so no node hits the atanh ridges of the
# varrho/sigma witnesses (alpha = 0 or +-pi/2 together with beta = pi/2)
COARSE_GRID = "--grid=-1,1,0.5,1.5,-2.2,2.4,0.5,2.5,3"


def run_cli(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code
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


def _verdicts(doc):
    rep = doc["report"]
    return [rep[key]["verdict"] for key in ("class_I", "class_II", "class_III", "regular",
                                            "centrality")]


# arctan is excluded on |Re z| <= 1/4 with Im z >= 3/4, which default-grid
# nodes reach; a grid with r <= 0.7 stays off that box
@pytest.mark.parametrize("spec", ["stem:arctan", "L:arctan"])
def test_arctan_reads_singular_on_the_default_grid(capsys, spec):
    rc, doc, _ = run_cli(capsys, ["classify", spec])
    assert rc == 0
    assert _verdicts(doc) == ["singular"] * 5


def test_arctan_classifies_off_its_excluded_box(capsys):
    rc, doc, _ = run_cli(capsys, ["classify", "stem:arctan",
                                  "--grid=-1,1,0.5,0.7,-2.5,2.5,0.4,2.7416,8"])
    assert rc == 0
    assert _verdicts(doc) == ["pass", "pass", "pass", "fail", "central"]


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


@pytest.mark.parametrize("argv, message", [
    (["classify", "rho", "--grid", "1,2,3"], "needs 9"),
    (["classify", "rho", "--grid=-1,1,0.5,1.5,-2.5,2.5,0.4,2.7,inf"], "n_per_axis"),
    (["classify", "rho", "--grid=-inf,1,0.5,1.5,-2.5,2.5,0.4,2.7,3"], "bad t range"),
    (["verify-props", "--seed=-1"], "--seed"),
    (["classify", "rho", "--h=inf"], "step h"),
    (["classify", "rho", "--tol-abs=nan"], "tolerances"),
    (["classify", "rho", "--tol-abs=-1"], "tolerances"),
    (["laurent", "rho", "--center=nan,1"], "not finite"),
    (["classify", "rho", "--grid=-1,1,0.5,1.5,-2.5,2.5,0.4,2.7,1000"], "1000000000000 nodes"),
    (["classify", "rho", "--grid=-1,1,0.5,1.5,-2.5,2.5,0.4,2.7,2.5"], "n_per_axis"),
    (["laurent", "rho", "--quad-points", "1000000000000"], "1000000000000 quadrature points"),
    (["laurent", "rho", "--grid=-1,1,0.5,1.5,-2.5,2.5,0.4,2.7,3"], "unrecognized arguments"),
    (["classify", "rho", "--seed", "1"], "unrecognized arguments"),
    (["classify", "stem:1:1e5e5:0"], "bad stem term '1:1e5e5:0'"),
], ids=["short-grid", "infinite-n", "infinite-range", "negative-seed", "infinite-h",
        "nan-tolerance", "negative-tolerance", "nan-center", "huge-grid", "fractional-n",
        "huge-quad-points", "laurent-grid", "classify-seed", "unparsable-stem-coefficient"])
def test_bad_numbers_exit_2(capsys, argv, message):
    rc, doc, err = run_cli(capsys, argv)
    assert rc == 2 and doc is None
    assert "error:" in err and message in err


def test_grid_flat_form_round_trip(capsys):
    # --grid is t0,t1,r0,r1,a0,a1,b0,b1,n_per_axis, and the report repeats it
    rc, doc, _ = run_cli(capsys, ["classify", "pow:2", COARSE_GRID])
    assert rc == 0
    assert doc["report"]["grid"] == {"t": [-1.0, 1.0], "r": [0.5, 1.5], "alpha": [-2.2, 2.4],
                                     "beta": [0.5, 2.5], "n_per_axis": 3}


@pytest.mark.parametrize("grid, message", [
    ("1,2,3", "--grid needs 9 comma-separated numbers, got '1,2,3'"),
    ("a,1,0.5,1.5,-2.5,2.5,0.4,2.7,3", "bad --grid value in 'a,1,0.5,1.5,-2.5,2.5,0.4,2.7,3'"),
    ("-1,1,0.5,1.5,-2.5,2.5,0.4,2.7,nan", "n_per_axis must be an integer"),
    ("-1,1,0.05,1.5,-2.5,2.5,0.4,2.7,3", "r range (0.05, 1.5) enters the real-axis margin r >= 0.1"),
    ("-1,1,0.5,1.5,-2.5,2.5,0.4,2.7,1", "need at least 2 points per axis"),
    ("-1,1,0.5,1.5,-2.5,2.5,-0.1,2.7,4", "beta range (-0.1, 2.7) leaves (0, pi)"),
    # hi - lo overflows though both ends are finite
    ("-1,1,0.5,1.5,-1e308,1e308,0.4,2.7,3",
     "bad alpha range (-1e+308, 1e+308): need lo <= hi and a finite width hi - lo"),
    ("-1e308,1e308,0.5,1.5,-2.5,2.5,0.4,2.7,3",
     "bad t range (-1e+308, 1e+308): need lo <= hi and a finite width hi - lo"),
], ids=["count", "not-a-number", "nan-n", "r-margin", "one-node", "beta-outside",
        "alpha-width-overflows", "t-width-overflows"])
def test_grid_flat_form_errors(capsys, grid, message):
    assert run_cli(capsys, ["classify", "rho", f"--grid={grid}"]) == (2, None, f"error: {message}\n")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, where):
    # exit 1 means a verification failure, so a report that cannot be written is a usage error
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    rc, doc, err = run_cli(capsys, ["classify", "pow:2", COARSE_GRID, "--out", str(out)])
    assert rc == 2 and doc is None
    assert err.startswith(f"error: cannot write --out {out}: ") and "Traceback" not in err


# h = 1e-300 rounds away against every nonzero coordinate; the stencils then
# differenced samples with themselves and gave confident, wrong verdicts
def test_classify_step_lost_to_rounding_exits_2(capsys):
    rc, doc, err = run_cli(capsys, ["classify", "rho", "--h", "1e-300"])
    assert rc == 2 and doc is None
    assert "error: stencil step 1e-300 does not move the chart coordinate" in err


def test_chiral_inner_step_lost_to_rounding_exits_2(capsys):
    # the grid's r = 1e12 nodes move under the outer step 1e-3, but x, y and
    # z there do not move under the chiral difference's inner step 1e-5
    rc, doc, err = run_cli(capsys, ["classify", "chiral:pow:3", "--h", "1e-3", "--scheme",
                                    "richardson", "--grid=-1,1,0.5,1e12,-2.5,2.5,0.4,2.7416,4"])
    assert rc == 2 and doc is None
    assert ("error: stencil step 1e-05 does not move the Cartesian coordinate "
            "-246968286213.97006; the step is below its rounding") in err


def test_laurent_step_lost_to_rounding_exits_2(capsys):
    rc, doc, err = run_cli(capsys, ["laurent", "rho", "--check-class", "--h", "1e-300"])
    assert rc == 2 and doc is None
    assert "error: stencil step 1e-300 does not move the window angle -0.5" in err


def test_verify_props_step_lost_to_rounding_exits_2(capsys):
    rc, doc, err = run_cli(capsys, ["verify-props", "--h", "1e-300"])
    assert rc == 2 and doc is None
    assert "error: stencil step 1e-300 does not move" in err


@pytest.mark.parametrize("argv", [["classify", "rho", "--seed", "1"],
                                  ["laurent", "rho", "--quad-points", "abc"]])
def test_argparse_usage_errors_return_2_in_process(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_parser_defaults_are_the_library_defaults():
    for argv in (["classify", "rho"], ["verify-props"], ["laurent", "rho"]):
        assert _config_from_args(build_parser().parse_args(argv)) == DiffConfig()


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


def test_laurent_fractional_order_range_exits_2(capsys):
    rc, doc, err = run_cli(capsys, ["laurent", "pow:2", "--n-range=-2.7,2"])
    assert rc == 2 and doc is None
    assert "error:" in err and "--n-range" in err


def test_laurent_evaluator_failure_on_contour_exits_2(capsys):
    # arctan is left undefined near its branch cut, which the contour crosses
    rc, doc, err = run_cli(capsys, ["laurent", "stem:arctan", "--quad-points", "32"])
    assert rc == 2 and doc is None
    assert "error: arctan: no finite value at z=" in err


@pytest.mark.parametrize("argv", (
    # the probes' scalar f(q) takes a Python complex to the power 2000
    ["laurent", "pow:2000"],
    # radius ** n of the lowest order in the quadrature scaling
    ["laurent", "pow:2", "--n-range=-1000,2", "--quad-points", "4096"],
))
def test_laurent_float_overflow_exits_2(capsys, argv):
    rc, doc, err = run_cli(capsys, argv)
    assert rc == 2 and doc is None
    assert err.startswith("error: ") and "float overflow" in err


def run_strict(capsys, argv):
    """ run_cli with every Python warning raised as an error """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(capsys, argv)


def test_tolerance_overflowing_to_inf_keeps_every_node(capsys):
    # 1e308 * max|f| overflows to inf, and so does 100 times a finite tolerance
    rc, doc, err = run_strict(capsys, ["classify", "rho", "--tol-rel", "1e308"])
    assert rc == 0 and err == ""
    assert _verdicts(doc) == ["pass"] * 4 + ["central"]


def test_laurent_quadrature_overflow_exits_2(capsys):
    # every sample is finite, but the FFT of 1e308 z over the ring is not
    rc, doc, err = run_strict(capsys, ["laurent", "stem:1:1e308:0", "--check-class"])
    assert rc == 2 and doc is None
    assert err == ("error: stem:1:1e+308:0: float overflow on this region (the contour "
                   "quadrature overflows on the slice (alpha, beta) = (-0.5000, 1.0708))\n")


@pytest.mark.parametrize("spec", ["stem:1:1e200:0", "stem:3:1e307:0"])
def test_finite_samples_past_the_root_of_the_float_maximum_classify(capsys, spec):
    # the sum of squares of a norm overflows from about 1.3e154, so these norms
    # are scaled by their largest component; on 1e307 z^3 the sum of the mean
    # of the regular residuals overflows too, and is scaled by their maximum
    rc, doc, err = run_strict(capsys, ["classify", spec])
    assert rc == 0 and err == ""
    assert _verdicts(doc) == ["pass"] * 3 + ["fail", "central"]
    for key in ("class_I", "class_II", "class_III", "regular", "centrality"):
        stats = doc["report"][key]
        assert 0.0 < stats["mean"] <= stats["max"] < math.inf, key


def test_laurent_probe_errors_past_the_root_of_the_float_maximum_stay_finite(capsys):
    # the probe values are about 1e200, whose squares overflow; their errors are
    # about 1e185, a relative 1e-15
    rc, doc, err = run_strict(capsys, ["laurent", "stem:1:1e200:0", "--check-class"])
    assert rc == 0 and err == ""
    assert [v["verdict"] for v in doc["class_check"].values()] == ["pass"] * 17
    assert 0.0 < doc["max_reconstruction_error"] < 1e-13 * 1e200


@pytest.mark.parametrize("tol_rel", [[], ["--tol-rel", "0"]], ids=["default", "0"])
def test_a_class_check_scale_past_the_float_maximum_stays_quiet(capsys, tol_rel):
    # the scale S / rho^n of the constant 1e300 about a ring of radius 0.015 overflows
    # from order 5 on; it is held at the float maximum, so tol_rel = 0 leaves tol_abs
    rc, doc, err = run_strict(capsys, ["laurent", "stem:0:1e300:0", "--radii", "0.01,0.02",
                                       "--n-range", "-40,40", "--check-class", *tol_rel])
    assert rc == 0 and err == ""
    assert [v["verdict"] for v in doc["class_check"].values()] == ["pass"] * 81


@pytest.mark.parametrize("argv", (
    ["classify", "L:2:1e300:0,7:2:-1,-1:1e154:1e308", "--grid=-1,1,0.5,1.5,-2.5,2.5,0.4,2.7,3"],
    ["laurent", "L:2:1e-12:1e-300,-4:1e200:1,-1:-1e308:1", "--scheme", "richardson",
     "--quad-points", "32"],
))
def test_non_finite_extension_condition_prints_only_its_error_line(capsys, argv):
    # the stem's samples overflow next to the first node, so the differences of the
    # slice extension condition are not finite there; no warning precedes the error
    rc, doc, err = run_strict(capsys, argv)
    assert rc == 2 and doc is None
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "no finite slice extension condition residual at (-1+0.5j)" in err


def test_richardson_spread_past_the_root_of_the_float_maximum_stays_quiet(capsys):
    # the h vs h/2 spreads of 1e200 z^3 rho square past the float maximum; the
    # class check's scale grows with f, so every order passes as for z^3 rho
    rc, doc, err = run_strict(capsys, ["laurent", "product:stem:3:1e200:0*rho",
                                       "--scheme", "richardson", "--check-class"])
    assert rc == 0 and err == ""
    assert [v["verdict"] for v in doc["class_check"].values()] == ["pass"] * 17


@pytest.mark.parametrize("argv", (
    ["classify", "rho", "--tol-rel", "-1e-7"],
    ["laurent", "rho", "--n-range", "-2,2"],
    ["classify", "rho", "--grid", "-1,1,0.5,1.5,-2.5,2.5,0.4,2.7,3"],
))
def test_a_negative_value_after_a_flag_is_that_flags_value(capsys, argv):
    # argparse alone reads -1e-7 or -2,2 as a flag, and the flag before it as
    # missing its argument
    *head, flag, value = argv
    spaced = run_strict(capsys, argv)
    joined = run_strict(capsys, head + [f"{flag}={value}"])
    for rc, doc, err in (spaced, joined):
        if doc is not None:
            doc.pop("timestamp")
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


def test_chiral_spot_check_names_the_nodes_without_a_finite_sample(capsys):
    # the samples are finite, but at every node some residual overflows
    rc, doc, err = run_strict(capsys, ["classify", "chiral:stem:1:1e308:0"])
    assert rc == 2 and doc is None
    assert err == ("error: stem:1:1e+308:0 failed the Class II spot check: singular (0 of 81 "
                   "nodes outside the chart margins, 81 without a finite sample or residual, "
                   "the first at (t, r, alpha, beta) = (-1.0, 0.5, -2.5, 0.4)); chiral "
                   "difference undefined\n")


def test_laurent_nan_probe_error_is_reported_as_nan(capsys, monkeypatch):
    # all probes are reconstructed in one batch; one NaN column must not be dropped
    batches, exact = [], cli.reconstruct

    def reconstruct(series, rows):
        batches.append(rows.shape)
        values = exact(series, rows)
        values[0, 2] = math.nan
        return values

    monkeypatch.setattr(cli, "reconstruct", reconstruct)
    rc, doc, _ = run_cli(capsys, ["laurent", "pow:2", "--quad-points", "32"])
    assert rc == 0 and batches == [(4, 24)]
    assert math.isnan(doc["max_reconstruction_error"])


def test_laurent_non_ce_function_exits_2(capsys):
    rc, doc, err = run_cli(capsys, ["laurent", "chiral:rho", "--quad-points", "32"])
    assert rc == 2 and doc is None
    assert "error:" in err and "CE/CI" in err


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


def test_every_public_name_resolves():
    for name in fueterlab.__all__:
        assert getattr(fueterlab, name) is not None, name
